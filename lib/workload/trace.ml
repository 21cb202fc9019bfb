type op = Put of string * string | Get of string | Del of string | Scan of string * int

let must_escape c = c = ' ' || c = '%' || c = '\n' || c = '\r'

let encode_field s =
  if String.exists must_escape s then begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        if must_escape c then Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        else Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
  else s

let decode_field s =
  if not (String.contains s '%') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i < n then
        if s.[i] = '%' && i + 2 < n then begin
          (match int_of_string_opt ("0x" ^ String.sub s (i + 1) 2) with
          | Some code -> Buffer.add_char buf (Char.chr code)
          | None -> failwith ("Trace: bad escape in field " ^ s));
          go (i + 3)
        end
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents buf
  end

let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line with
    | [ "PUT"; k; v ] -> Some (Put (decode_field k, decode_field v))
    | [ "GET"; k ] -> Some (Get (decode_field k))
    | [ "DEL"; k ] -> Some (Del (decode_field k))
    | [ "SCAN"; k; n ] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> Some (Scan (decode_field k, n))
        | _ -> failwith ("Trace: bad scan count in: " ^ line))
    | _ -> failwith ("Trace: malformed line: " ^ line)

let print_line = function
  | Put (k, v) -> Printf.sprintf "PUT %s %s" (encode_field k) (encode_field v)
  | Get k -> "GET " ^ encode_field k
  | Del k -> "DEL " ^ encode_field k
  | Scan (k, n) -> Printf.sprintf "SCAN %s %d" (encode_field k) n

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> (
            match parse_line line with
            | Some op -> go (op :: acc)
            | None -> go acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let save path ops =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun op ->
          output_string oc (print_line op);
          output_char oc '\n')
        ops)

let apply sys = function
  | Put (key, value) -> Incll.System.put sys ~key ~value
  | Get key -> ignore (Incll.System.get sys ~key : string option)
  | Del key -> ignore (Incll.System.remove sys ~key : bool)
  | Scan (start, n) ->
      ignore (Incll.System.scan sys ~start ~n : (string * string) list)
