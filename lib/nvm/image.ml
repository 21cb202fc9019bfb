let file_magic = 0x1AC1_1F11_EL (* "incll file image" *)
let file_format = 1L
let header_bytes = 64

(* The state word: a live file is rewritten line by line, so no
   checksum can follow it. *)
let sealed = 0L
let live = 1L

let checksum get n =
  (* Cheap rolling checksum over the image; corruption detection only. *)
  let acc = ref 0xcbf29ce484222325L in
  let i = ref 0 in
  while !i + 8 <= n do
    acc := Int64.mul (Int64.logxor !acc (get !i)) 0x100000001b3L;
    i := !i + 8
  done;
  !acc

let header ~size ~sum ~state =
  let h = Bytes.make header_bytes '\000' in
  List.iteri
    (fun i w -> Bytes.set_int64_le h (8 * i) w)
    [ file_magic; file_format; Int64.of_int size; sum; state ];
  h

let save region ~path =
  let size = Region.size region in
  (* Uncharged: saving is not part of the simulated instruction set. *)
  let image = Region.read_persisted region 0 ~len:size in
  let sum = checksum (Bytes.get_int64_le image) size in
  Out_channel.with_open_bin path (fun oc ->
      output_bytes oc (header ~size ~sum ~state:sealed);
      output_bytes oc image)

let fail path m = failwith (path ^ ": " ^ m)

let open_file path flags =
  try Unix.openfile path flags 0o644
  with Unix.Unix_error (e, _, _) -> fail path (Unix.error_message e)

(* Opens [path] and reads its header: the payload size, the checksum
   and whether the file is live. *)
let with_image path f =
  let fd = open_file path [ Unix.O_RDONLY ] in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let h = Bytes.create header_bytes in
  let word i = Bytes.get_int64_le h (8 * i) in
  if Unix.read fd h 0 header_bytes < header_bytes || word 0 <> file_magic then
    fail path "not an incll image file";
  if word 1 <> file_format then fail path "unsupported image format version";
  if word 4 <> sealed && word 4 <> live then fail path "unknown image state";
  f fd (Int64.to_int (word 2)) (word 3) (word 4 = live)

let image_size ~path = with_image path (fun _ size _ _ -> size)
let is_live ~path = with_image path (fun _ _ _ is_live -> is_live)

let map_payload fd ~shared size =
  Unix.map_file fd ~pos:(Int64.of_int header_bytes) Bigarray.char
    Bigarray.c_layout shared [| size |]
  |> Bigarray.array1_of_genarray

external get64u : Region.bigstring -> int -> int64 = "%caml_bigstring_get64u"

let load (config : Config.t) ~path =
  with_image path @@ fun fd size sum is_live ->
  let on_file = (Unix.fstat fd).Unix.st_size - header_bytes in
  if on_file <> size || size <> config.size_bytes then
    fail path (Printf.sprintf "image of %d bytes (%d on file), region of %d"
                 size on_file config.size_bytes);
  (* Private: loading never writes the file. *)
  let image = map_payload fd ~shared:false size in
  if (not is_live) && checksum (get64u image) size <> sum then
    fail path "corrupt image";
  let region = Region.create config in
  (* The machine rebooted with this NVM content and a cold, clean cache. *)
  Region.install_image region image;
  region

let attach region ~path =
  let size = Region.size region in
  let fd = open_file path [ Unix.O_RDWR; Unix.O_CREAT ] in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.ftruncate fd (header_bytes + size);
  Region.set_mirror region (map_payload fd ~shared:true size);
  (* The header goes last: a process killed while a fresh file is being
     filled leaves one [load] refuses, not a half-written image. *)
  ignore (Unix.write fd (header ~size ~sum:0L ~state:live) 0 header_bytes)
