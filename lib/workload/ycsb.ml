type mix = A | B | C | E

let mix_of_string s =
  match String.uppercase_ascii s with
  | "A" | "YCSB_A" -> A
  | "B" | "YCSB_B" -> B
  | "C" | "YCSB_C" -> C
  | "E" | "YCSB_E" -> E
  | _ -> invalid_arg ("Ycsb.mix_of_string: " ^ s)

let mix_name = function A -> "YCSB_A" | B -> "YCSB_B" | C -> "YCSB_C" | E -> "YCSB_E"

type dist = Uniform | Zipfian

let dist_name = function Uniform -> "uniform" | Zipfian -> "zipfian"

type op = Put of string * string | Get of string | Scan of string * int

type spec = { mix : mix; dist : dist; nkeys : int }

let max_scan_length = 100
let insert_fraction_e = 0.05

let key_of_rank r = Masstree.Key.of_int64 (Util.Scramble.key_of_rank r)

(* 8-byte value deterministically tied to the key, so reads can verify. *)
let value_for key =
  Masstree.Key.of_int64
    (Util.Scramble.fmix64 (Int64.lognot (Masstree.Key.to_int64 key)))

let load_keys ~nkeys = Array.init nkeys key_of_rank

let write_fraction = function A -> 0.5 | B -> 0.05 | C -> 0.0 | E -> 0.0

let generate spec rng ~n =
  let zipf =
    match spec.dist with
    | Uniform -> None
    | Zipfian -> Some (Util.Zipf.create ~n:spec.nkeys ~theta:0.99)
  in
  let next_rank () =
    match zipf with
    | None -> Util.Rng.int rng spec.nkeys
    | Some z -> Util.Zipf.next z rng
  in
  let wf = write_fraction spec.mix in
  (* YCSB-E's 5% inserts append fresh records past the loaded range, in
     order — the YCSB core "latest insert" pattern. *)
  let next_fresh = ref spec.nkeys in
  Array.init n (fun _ ->
      match spec.mix with
      | E ->
          if Util.Rng.chance rng insert_fraction_e then begin
            let key = key_of_rank !next_fresh in
            incr next_fresh;
            Put (key, value_for key)
          end
          else
            (* Scan length is drawn uniformly from [1, 100] per request,
               per the YCSB core workload E definition. *)
            Scan (key_of_rank (next_rank ()), 1 + Util.Rng.int rng max_scan_length)
      | _ ->
          let key = key_of_rank (next_rank ()) in
          if wf > 0.0 && Util.Rng.chance rng wf then Put (key, value_for key)
          else Get key)
