module J = Obs.Json

type spike = {
  shard : int;
  index : int;
  tag : char;
  start_ns : float;
  lat_ns : float;
  wall_ns : float;
  queue_ns : float;
  cause : Obs.Stall.cause option;
  stalls : Obs.Stall.entry list;
}

let spike_k = 16

let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> []

let insert_spike buf s =
  let rec ins = function
    | [] -> [ s ]
    | x :: _ as l when s.lat_ns > x.lat_ns -> s :: l
    | x :: tl -> x :: ins tl
  in
  take spike_k (ins buf)

let merge_spikes lists =
  take spike_k
    (List.stable_sort
       (fun a b -> compare b.lat_ns a.lat_ns)
       (List.concat lists))

type robust = {
  ops : int;
  retries : int;
  reconnects : int;
  backoff_ns : float;
  dedup_hits : int;
}

type t = {
  threshold_ns : float;
  arrival_rate : float option;
  latency : Obs.Histogram.t;
  wall : Obs.Histogram.t option;
  shards : Obs.Histogram.t list;
  over_threshold : int;
  attributed : (string * int) list;
  stall_totals : (string * (int * float)) list;
  spikes : spike list;
  robust : robust option;
}

let cause_key = function Some c -> Obs.Stall.cause_name c | None -> "none"

let attribution count =
  List.map
    (fun c -> (cause_key c, count c))
    (List.map Option.some Obs.Stall.all_causes @ [ None ])

let attributed_ops t =
  List.fold_left
    (fun a (name, n) -> if name = "none" then a else a + n)
    0 t.attributed

let op_name = function '\000' -> "put" | '\001' -> "get" | _ -> "scan"

(* ---------------------------------------------------------------- JSON *)

let spike_json s =
  let entry (e : Obs.Stall.entry) =
    J.Obj
      [
        ("cause", J.String (Obs.Stall.cause_name e.Obs.Stall.cause));
        ("start_ns", J.Float e.Obs.Stall.start_ns);
        ("dur_ns", J.Float e.Obs.Stall.dur_ns);
        ("epoch", J.Int e.Obs.Stall.epoch);
      ]
  in
  J.Obj
    [
      ("shard", J.Int s.shard);
      ("index", J.Int s.index);
      ("op", J.String (op_name s.tag));
      ("start_ns", J.Float s.start_ns);
      ("lat_ns", J.Float s.lat_ns);
      ("wall_ns", J.Float s.wall_ns);
      ("queue_ns", J.Float s.queue_ns);
      ( "cause",
        match s.cause with
        | Some c -> J.String (Obs.Stall.cause_name c)
        | None -> J.Null );
      ("stalls", J.List (List.map entry s.stalls));
    ]

let to_json ?(extra = []) t =
  J.Obj
    ([
       ("open_loop", J.Bool (t.arrival_rate <> None));
       ( "arrival_rate",
         match t.arrival_rate with Some r -> J.Float r | None -> J.Null );
       ("threshold_ns", J.Float t.threshold_ns);
     ]
    @ extra
    @ [ ("merged", Obs.Histogram.to_json t.latency) ]
    @ (match t.wall with
      | Some h -> [ ("wall", Obs.Histogram.to_json h) ]
      | None -> [])
    @ [
        ("shards", J.List (List.map Obs.Histogram.to_json t.shards));
        ("over_threshold", J.Int t.over_threshold);
        ( "attributed",
          J.Obj (List.map (fun (n, c) -> (n, J.Int c)) t.attributed) );
        ( "stall_totals",
          J.Obj
            (List.map
               (fun (n, (count, total)) ->
                 ( n,
                   J.Obj
                     [ ("count", J.Int count); ("total_ns", J.Float total) ] ))
               t.stall_totals) );
        ("spikes", J.List (List.map spike_json t.spikes));
      ]
    @
    match t.robust with
    | None -> []
    | Some r ->
        [
          ( "robust",
            J.Obj
              [
                ("ops", J.Int r.ops);
                ("retries", J.Int r.retries);
                ("reconnects", J.Int r.reconnects);
                ("backoff_ns", J.Float r.backoff_ns);
                ("dedup_hits", J.Int r.dedup_hits);
              ] );
        ])

(* -------------------------------------------------------------- printing *)

let tables modes =
  let summary =
    Util.Table.create
      ~columns:
        [
          "mode"; "p50 us"; "p99 us"; "p999 us"; "p9999 us"; "max us";
          "over thr"; "attributed";
        ]
  in
  let stalls =
    Util.Table.create
      ~columns:[ "mode"; "cause"; "stalls"; "total ms"; "attributed ops" ]
  in
  List.iter
    (fun (mode, t) ->
      let us x = Util.Table.cell_float (x /. 1e3) in
      let p q = us (Obs.Histogram.percentile t.latency q) in
      Util.Table.add_row summary
        ((mode :: List.map p [ 0.5; 0.99; 0.999; 0.9999 ])
        @ [
            us (Obs.Histogram.max_value t.latency);
            Util.Table.cell_int t.over_threshold;
            (if t.over_threshold = 0 then "n/a"
             else
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int (attributed_ops t)
                 /. float_of_int t.over_threshold));
          ]);
      List.iter
        (fun (name, (count, total)) ->
          if count > 0 then
            Util.Table.add_row stalls
              [
                mode;
                name;
                Util.Table.cell_int count;
                Util.Table.cell_float (total /. 1e6);
                Util.Table.cell_int (List.assoc name t.attributed);
              ])
        t.stall_totals)
    modes;
  (summary, stalls)

let print_spikes modes =
  List.iter
    (fun (mode, t) ->
      List.iter
        (fun s ->
          let evidence =
            match (s.stalls, s.cause) with
            | [], Some c -> Obs.Stall.cause_name c
            | [], None -> "no overlapping stall"
            | l, _ ->
                String.concat ", "
                  (List.map
                     (fun (e : Obs.Stall.entry) ->
                       Printf.sprintf "%s %.0fus"
                         (Obs.Stall.cause_name e.Obs.Stall.cause)
                         (e.Obs.Stall.dur_ns /. 1e3))
                     (take 3 l))
          in
          Printf.printf "    [%s] shard%d %s lat=%.0fus queue=%.0fus  <- %s\n%!"
            mode s.shard (op_name s.tag) (s.lat_ns /. 1e3) (s.queue_ns /. 1e3)
            evidence)
        (take 5 t.spikes))
    modes

(* ------------------------------------------------------------- reading *)

type gate = Always | If_nonzero | Shown

type cell = { label : string; path : string list; gate : gate; unit_ : string }

let cells mode =
  let cell gate unit_ label path = { label; path; gate; unit_ } in
  let shards =
    match J.find mode "shards" with
    | Some (J.List l) ->
        List.mapi
          (fun i _ ->
            cell Shown " ns" (Printf.sprintf "shard%d p99" i)
              [ "shards"; string_of_int i; "p99" ])
          l
    | _ -> []
  in
  let robust =
    match J.find mode "robust" with
    | Some (J.Obj _) ->
        List.map
          (fun m -> cell If_nonzero "" ("robust." ^ m) [ "robust"; m ])
          [ "retries"; "reconnects"; "backoff_ns" ]
        @ [ cell Shown "" "robust.dedup_hits" [ "robust"; "dedup_hits" ] ]
    | _ -> []
  in
  let stalls =
    match J.find mode "stall_totals" with
    | Some (J.Obj causes) ->
        List.map
          (fun (c, _) ->
            cell If_nonzero " ns" ("stall." ^ c)
              [ "stall_totals"; c; "total_ns" ])
          causes
    | _ -> []
  in
  List.map
    (fun p -> cell Always " ns" p [ "merged"; p ])
    [ "p50"; "p99"; "p999" ]
  @ shards @ robust @ stalls

let cell_value mode cell =
  let step j key =
    match j with
    | J.List l -> Option.bind (int_of_string_opt key) (List.nth_opt l)
    | _ -> J.find j key
  in
  let rec walk j = function
    | [] -> J.to_float_opt j
    | key :: rest -> Option.bind (step j key) (fun j -> walk j rest)
  in
  walk mode cell.path
