(* Seeded YCSB op generation in fixed-size chunks. [Workload.Ycsb.generate]
   materialises a whole stream up front; at benchmark scale that array
   would dominate the process's peak RSS, so the benchmark refills one
   small chunk between measured ops instead. The op mix, key choice and
   YCSB-E insert pattern are Ycsb's: same [key_of_rank] scrambling, same
   [value_for] payloads, Zipfian 0.99 from [Util.Zipf]. *)

module Y = Workload.Ycsb

let tag_put = '\000'
let tag_get = '\001'
let tag_scan = '\002'

type chunk = {
  tags : Bytes.t;
  keys : string array;
  values : string array;
      (** PUT payload; for a GET the value the model expects back *)
  scan_n : int array;
  mutable len : int;
}

let chunk_size = 4096

let make_chunk () =
  {
    tags = Bytes.make chunk_size tag_get;
    keys = Array.make chunk_size "";
    values = Array.make chunk_size "";
    scan_n = Array.make chunk_size 0;
    len = 0;
  }

type t = {
  spec : Y.spec;
  rng : Util.Rng.t;
  zipf : Util.Zipf.t option;
  mutable next_fresh : int;  (** YCSB-E: rank of the next inserted key *)
}

let create (spec : Y.spec) ~seed =
  {
    spec;
    rng = Util.Rng.create ~seed;
    zipf =
      (match spec.dist with
      | Y.Uniform -> None
      | Y.Zipfian -> Some (Util.Zipf.create ~n:spec.nkeys ~theta:0.99));
    next_fresh = spec.nkeys;
  }

(* A second stream over the same key space (and the same insert cursor
   for YCSB-E, so warm-up inserts and measured inserts never collide). *)
let derive t ~seed = { t with rng = Util.Rng.create ~seed }

let next_fresh t = t.next_fresh

let next_rank t =
  match t.zipf with
  | None -> Util.Rng.int t.rng t.spec.nkeys
  | Some z -> Util.Zipf.next z t.rng

let fill t c =
  for i = 0 to chunk_size - 1 do
    match t.spec.mix with
    | Y.E ->
        if Util.Rng.float t.rng < Y.insert_fraction_e then begin
          let key = Y.key_of_rank t.next_fresh in
          t.next_fresh <- t.next_fresh + 1;
          Bytes.unsafe_set c.tags i tag_put;
          c.keys.(i) <- key;
          c.values.(i) <- Y.value_for key
        end
        else begin
          let key = Y.key_of_rank (next_rank t) in
          Bytes.unsafe_set c.tags i tag_scan;
          c.keys.(i) <- key;
          c.values.(i) <- "";
          c.scan_n.(i) <- 1 + Util.Rng.int t.rng Y.max_scan_length
        end
    | Y.A | Y.B | Y.C ->
        let key = Y.key_of_rank (next_rank t) in
        let wf = match t.spec.mix with Y.A -> 0.5 | Y.B -> 0.05 | _ -> 0.0 in
        Bytes.unsafe_set c.tags i
          (if wf > 0.0 && Util.Rng.float t.rng < wf then tag_put else tag_get);
        c.keys.(i) <- key;
        c.values.(i) <- Y.value_for key
  done;
  c.len <- chunk_size
