(* Allocation budget of the point-operation path (DESIGN.md §11).

   GET, update PUT and SCAN on a durable INCLL store should allocate only
   their results. Minor-heap words per op are deterministic for a seed
   (unlike wall time), so they can be gated exactly: a warmed 10k-key
   Precise-mode store runs a seeded zipf stream of each op kind and the
   average [Gc.minor_words] per op must stay under a fixed ceiling.

   The workload's keys and values are 8 bytes (YCSB's, as in perfbench),
   so a GET hit's result is a 3-word string in a 2-word [Some], and a
   scanned pair costs 12 words: two strings, the tuple and the list
   cell. The ceilings leave headroom for the amortised checkpoint work
   (a few epoch advances per stream), nothing more. *)

module Sys_ = Incll.System
module Y = Workload.Ycsb

let nkeys = 10_000
let ops = 20_000

let config =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 16 * 1024 * 1024;
        extlog_bytes = 1024 * 1024;
        crash_support = Nvm.Config.Precise;
      };
    epoch_len_ns = 1.0e6;
  }

let keys = Array.init nkeys Y.key_of_rank
let values = Array.map Y.value_for keys

(* A seeded zipf stream of key indices, drawn up front so the measured
   loops allocate nothing of their own. *)
let stream ~seed =
  let z = Util.Zipf.create ~n:nkeys ~theta:0.99 in
  let rng = Util.Rng.create ~seed in
  Array.init ops (fun _ -> Util.Zipf.next z rng)

let warmed () =
  let sys = Sys_.create ~config Sys_.Incll in
  Array.iteri (fun i key -> Sys_.put sys ~key ~value:values.(i)) keys;
  let warm = stream ~seed:1 in
  Array.iter
    (fun i ->
      Sys_.put sys ~key:keys.(i) ~value:values.(i);
      ignore (Sys_.get sys ~key:keys.(i) : string option))
    warm;
  sys

(* Minor words allocated by [f] over the whole stream. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let per_op w n = w /. float_of_int n

let check_budget name ~got ~ceiling =
  if got > ceiling then
    Alcotest.failf "%s: %.1f minor words, ceiling %.1f" name got ceiling

let get_hit () =
  let sys = warmed () in
  let s = stream ~seed:2 in
  let hits = ref 0 in
  let w =
    words (fun () ->
        for j = 0 to ops - 1 do
          match Sys_.get sys ~key:(Array.unsafe_get keys (Array.unsafe_get s j)) with
          | Some _ -> incr hits
          | None -> ()
        done)
  in
  Alcotest.(check int) "every GET hits" ops !hits;
  check_budget "GET hit per op" ~got:(per_op w ops) ~ceiling:8.0

let update_put () =
  let sys = warmed () in
  let s = stream ~seed:3 in
  let em = Option.get (Sys_.epoch_manager sys) in
  let e0 = Epoch.Manager.epochs_elapsed em in
  let w =
    words (fun () ->
        for j = 0 to ops - 1 do
          let i = Array.unsafe_get s j in
          Sys_.put sys ~key:(Array.unsafe_get keys i)
            ~value:(Array.unsafe_get values i)
        done)
  in
  (* The stream must span checkpoints, so first touches of fresh epochs
     are inside the average. *)
  Alcotest.(check bool)
    "stream crosses epochs" true
    (Epoch.Manager.epochs_elapsed em > e0);
  check_budget "update PUT per op" ~got:(per_op w ops) ~ceiling:24.0

let scan () =
  let sys = warmed () in
  let s = stream ~seed:4 in
  let calls = ops / 10 in
  let pairs = ref 0 in
  let w =
    words (fun () ->
        for j = 0 to calls - 1 do
          let i = Array.unsafe_get s j in
          let n = 1 + (i mod 50) in
          pairs := !pairs + List.length (Sys_.scan sys ~start:keys.(i) ~n)
        done)
  in
  Alcotest.(check bool) "scans return pairs" true (!pairs > calls);
  check_budget "SCAN"
    ~got:w
    ~ceiling:((16.0 *. float_of_int !pairs) +. (32.0 *. float_of_int calls))

(* [Util.Rng.int] is drawn for every victim of [Nvm.Region.evict_some]
   and [Nvm.Region.crash] and by the workload generators: a draw must
   allocate nothing, whatever the bound (the [3 lsl 60] draws reject a
   quarter of their candidates). *)
let rng_int () =
  let r = Util.Rng.create ~seed:5 in
  let n = 100_000 in
  let acc = ref 0 in
  let w =
    words (fun () ->
        for i = 1 to n do
          acc := !acc + Util.Rng.int r (if i land 7 = 0 then 3 lsl 60 else i)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  check_budget "Rng.int per draw" ~got:(per_op w n) ~ceiling:0.01

let tests =
  ( "alloc_budget",
    [
      Alcotest.test_case "GET hit allocates only its result" `Quick get_hit;
      Alcotest.test_case "update PUT allocates almost nothing" `Quick update_put;
      Alcotest.test_case "SCAN allocates only its pairs" `Quick scan;
      Alcotest.test_case "Rng.int allocates nothing" `Quick rng_int;
    ] )
