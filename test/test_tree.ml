(* Tests for the Masstree ordered map: point ops, splits, trie layers,
   scans, and a model-based qcheck property. These run with transient
   hooks — durability is covered by test_incll / test_recovery. *)

module T = Masstree.Tree
module SM = Map.Make (String)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk ?(size = 8 * 1024 * 1024) () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = size;
      extlog_bytes = 64 * 1024;
      crash_support = Nvm.Config.Counting;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let a = Alloc.Api.of_transient (Alloc.Transient.create Alloc.Transient.Pool r) in
  T.create r a Masstree.Hooks.transient ~current_epoch:(fun () -> 2)

(* A ["tree.<name>"] counter of the tree's (fresh) region. *)
let stat t name =
  Obs.Registry.counter_value (Nvm.Region.metrics (T.region t)) ("tree." ^ name)

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

let empty_tree () =
  let t = mk () in
  check "absent" true (T.get t ~key:"nope" = None);
  check_int "cardinal 0" 0 (T.cardinal t);
  check "remove misses" false (T.remove t ~key:"nope");
  Alcotest.(check (list (pair string string))) "scan empty" [] (T.scan t ~start:"" ~n:10);
  T.validate t

let put_get_single () =
  let t = mk () in
  T.put t ~key:"hello" ~value:"world";
  check "present" true (T.get t ~key:"hello" = Some "world");
  check "mem" true (T.mem t ~key:"hello");
  check_int "cardinal" 1 (T.cardinal t)

let put_overwrites () =
  let t = mk () in
  T.put t ~key:"k" ~value:"v1";
  T.put t ~key:"k" ~value:"v2";
  check "updated" true (T.get t ~key:"k" = Some "v2");
  check_int "still one" 1 (T.cardinal t);
  check_int "one update" 1 (stat t "updates")

let remove_works () =
  let t = mk () in
  T.put t ~key:"a" ~value:"1";
  T.put t ~key:"b" ~value:"2";
  check "removed" true (T.remove t ~key:"a");
  check "gone" true (T.get t ~key:"a" = None);
  check "other kept" true (T.get t ~key:"b" = Some "2");
  check "second remove misses" false (T.remove t ~key:"a")

let splits_preserve_contents () =
  let t = mk () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    T.put t ~key:(key8 i) ~value:(string_of_int i)
  done;
  T.validate t;
  check "splits happened" true (stat t "leaf_splits" > 100);
  check "tree has internals" true (stat t "root_splits" >= 1);
  for i = 0 to n - 1 do
    check "all present" true (T.get t ~key:(key8 i) = Some (string_of_int i))
  done;
  check_int "cardinal" n (T.cardinal t)

let sequential_inserts () =
  (* Ascending keys stress the rightmost-split path. *)
  let t = mk () in
  for i = 0 to 2_000 do
    T.put t ~key:(Masstree.Key.of_int64 (Int64.of_int i)) ~value:"x"
  done;
  T.validate t;
  check_int "cardinal" 2_001 (T.cardinal t)

let descending_inserts () =
  let t = mk () in
  for i = 2_000 downto 0 do
    T.put t ~key:(Masstree.Key.of_int64 (Int64.of_int i)) ~value:"x"
  done;
  T.validate t;
  check_int "cardinal" 2_001 (T.cardinal t)

let long_keys_build_layers () =
  let t = mk () in
  let keys =
    [
      "";
      "a";
      "abcdefgh";
      "abcdefghi";
      "abcdefgh-0123456";
      "abcdefgh-01234567";
      "abcdefgh-01234567X";
      "abcdefgh-01234567XYZABCDEFGHIJKLMNOP";
      "zzzzzzzzz";
    ]
  in
  List.iter (fun k -> T.put t ~key:k ~value:("v:" ^ k)) keys;
  check "layers created" true (stat t "layer_creations" >= 2);
  List.iter
    (fun k -> check ("get " ^ String.escaped k) true (T.get t ~key:k = Some ("v:" ^ k)))
    keys;
  T.validate t;
  (* Lexicographic global order across layers. *)
  Alcotest.(check (list string)) "scan order" (List.sort compare keys)
    (List.map fst (T.scan t ~start:"" ~n:100))

let shared_prefix_dense () =
  (* Many keys sharing an 8-byte prefix: one layer absorbs them all. *)
  let t = mk () in
  let keys = List.init 500 (fun i -> Printf.sprintf "prefix!!%06d" i) in
  List.iter (fun k -> T.put t ~key:k ~value:k) keys;
  T.validate t;
  check_int "all present" 500 (T.cardinal t);
  List.iter (fun k -> check "get" true (T.get t ~key:k = Some k)) keys;
  (* And the scan returns them in order. *)
  Alcotest.(check (list string)) "ordered" keys
    (List.map fst (T.scan t ~start:"prefix" ~n:1000))

let exact8_and_longer_coexist () =
  let t = mk () in
  T.put t ~key:"ABCDEFGH" ~value:"eight";
  T.put t ~key:"ABCDEFGHIJ" ~value:"ten";
  check "eight" true (T.get t ~key:"ABCDEFGH" = Some "eight");
  check "ten" true (T.get t ~key:"ABCDEFGHIJ" = Some "ten");
  check "removed eight only" true (T.remove t ~key:"ABCDEFGH");
  check "ten survives" true (T.get t ~key:"ABCDEFGHIJ" = Some "ten");
  T.validate t

let scan_from_middle () =
  let t = mk () in
  for i = 0 to 99 do
    T.put t ~key:(Printf.sprintf "k%03d" i) ~value:(string_of_int i)
  done;
  let got = T.scan t ~start:"k050" ~n:5 in
  Alcotest.(check (list string)) "five from k050"
    [ "k050"; "k051"; "k052"; "k053"; "k054" ]
    (List.map fst got);
  (* Start between keys. *)
  let got = T.scan t ~start:"k0505" ~n:2 in
  Alcotest.(check (list string)) "rounds up" [ "k051"; "k052" ] (List.map fst got);
  (* Scan past the end. *)
  check_int "truncated at end" 1 (List.length (T.scan t ~start:"k099" ~n:10))

let fold_stops_early () =
  let t = mk () in
  for i = 0 to 99 do
    T.put t ~key:(Printf.sprintf "k%03d" i) ~value:""
  done;
  let seen = ref 0 in
  T.fold_from t ~start:"" ~f:(fun _ _ ->
      incr seen;
      !seen < 7);
  check_int "stopped at 7" 7 !seen

let values_of_many_sizes () =
  let t = mk () in
  let sizes = [ 0; 1; 7; 8; 9; 31; 32; 33; 100; 1000; 4000; T.max_value_bytes ] in
  List.iteri
    (fun i sz ->
      let v = String.make sz (Char.chr (65 + (i mod 26))) in
      T.put t ~key:(Printf.sprintf "size%d" sz) ~value:v)
    sizes;
  List.iteri
    (fun i sz ->
      let v = String.make sz (Char.chr (65 + (i mod 26))) in
      check "value intact" true (T.get t ~key:(Printf.sprintf "size%d" sz) = Some v))
    sizes;
  check "oversized rejected" true
    (try
       T.put t ~key:"big" ~value:(String.make (T.max_value_bytes + 1) 'x');
       false
     with Invalid_argument _ -> true)

let iter_visits_all () =
  let t = mk () in
  let n = 300 in
  for i = 0 to n - 1 do
    T.put t ~key:(key8 i) ~value:(string_of_int i)
  done;
  let seen = ref SM.empty in
  T.iter t (fun k v -> seen := SM.add k v !seen);
  check_int "count" n (SM.cardinal !seen);
  for i = 0 to n - 1 do
    check "content" true (SM.find_opt (key8 i) !seen = Some (string_of_int i))
  done

let model_property =
  let open QCheck in
  let key_gen = Gen.(map (fun i -> Printf.sprintf "%04d" i) (int_bound 300)) in
  let op_gen =
    Gen.(
      frequency
        [
          (5, map (fun k -> `Put k) key_gen);
          (2, map (fun k -> `Remove k) key_gen);
          (2, map (fun k -> `Get k) key_gen);
          (1, map2 (fun k n -> `Scan (k, n)) key_gen (int_range 1 10));
        ])
  in
  Test.make ~name:"tree matches Map model" ~count:60
    (make Gen.(list_size (int_range 50 600) op_gen))
    (fun ops ->
      let t = mk () in
      let model = ref SM.empty in
      let step = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          incr step;
          match op with
          | `Put k ->
              let v = Printf.sprintf "%s@%d" k !step in
              T.put t ~key:k ~value:v;
              model := SM.add k v !model
          | `Remove k ->
              let a = T.remove t ~key:k in
              let b = SM.mem k !model in
              if a <> b then ok := false;
              model := SM.remove k !model
          | `Get k -> if T.get t ~key:k <> SM.find_opt k !model then ok := false
          | `Scan (k, n) ->
              let got = T.scan t ~start:k ~n in
              let expect =
                SM.to_seq !model
                |> Seq.filter (fun (k', _) -> k' >= k)
                |> Seq.take n |> List.of_seq
              in
              if got <> expect then ok := false)
        ops;
      T.validate t;
      !ok && T.cardinal t = SM.cardinal !model)

let tests =
  ( "tree",
    [
      Alcotest.test_case "empty tree" `Quick empty_tree;
      Alcotest.test_case "put/get single" `Quick put_get_single;
      Alcotest.test_case "put overwrites" `Quick put_overwrites;
      Alcotest.test_case "remove" `Quick remove_works;
      Alcotest.test_case "splits preserve contents" `Quick splits_preserve_contents;
      Alcotest.test_case "sequential inserts" `Quick sequential_inserts;
      Alcotest.test_case "descending inserts" `Quick descending_inserts;
      Alcotest.test_case "long keys build layers" `Quick long_keys_build_layers;
      Alcotest.test_case "dense shared prefix" `Quick shared_prefix_dense;
      Alcotest.test_case "exact-8 and longer coexist" `Quick exact8_and_longer_coexist;
      Alcotest.test_case "scan from middle" `Quick scan_from_middle;
      Alcotest.test_case "fold stops early" `Quick fold_stops_early;
      Alcotest.test_case "values of many sizes" `Quick values_of_many_sizes;
      Alcotest.test_case "iter visits all" `Quick iter_visits_all;
      QCheck_alcotest.to_alcotest model_property;
    ] )

(* --- node removal (empty-leaf unlink, splice, collapse, layer prune) ---- *)

let remove_all_collapses_tree () =
  let t = mk () in
  let n = 3_000 in
  for i = 0 to n - 1 do
    T.put t ~key:(key8 i) ~value:"x"
  done;
  for i = 0 to n - 1 do
    check "removed" true (T.remove t ~key:(key8 i))
  done;
  check_int "empty" 0 (T.cardinal t);
  T.validate t;
  check "leaves unlinked" true (stat t "leaf_removals" > 100);
  check "internals spliced" true (stat t "internal_splices" > 0);
  check "root collapsed" true (stat t "root_collapses" > 0);
  (* And the structure is reusable. *)
  for i = 0 to 499 do
    T.put t ~key:(key8 i) ~value:"again"
  done;
  check_int "refilled" 500 (T.cardinal t);
  T.validate t

let interleaved_insert_remove_stays_compact () =
  let t = mk () in
  let rng = Util.Rng.create ~seed:31 in
  let live = Hashtbl.create 64 in
  for step = 1 to 20_000 do
    let k = key8 (Util.Rng.int rng 500) in
    if Util.Rng.bool rng then begin
      T.put t ~key:k ~value:(string_of_int step);
      Hashtbl.replace live k ()
    end
    else begin
      ignore (T.remove t ~key:k);
      Hashtbl.remove live k
    end
  done;
  T.validate t;
  check_int "cardinal tracks" (Hashtbl.length live) (T.cardinal t)

let empty_layer_is_pruned () =
  let t = mk () in
  (* Two keys sharing an 8-byte prefix force a nested layer... *)
  T.put t ~key:"sameprefA" ~value:"1";
  T.put t ~key:"sameprefB" ~value:"2";
  check "layer created" true (stat t "layer_creations" >= 1);
  (* ...removing both leaves an empty layer, which must be pruned. *)
  check "rm A" true (T.remove t ~key:"sameprefA");
  check "rm B" true (T.remove t ~key:"sameprefB");
  check "layer pruned" true (stat t "layer_prunes" >= 1);
  check_int "empty" 0 (T.cardinal t);
  T.validate t;
  (* The prefix is insertable again from scratch. *)
  T.put t ~key:"sameprefC" ~value:"3";
  check "reinsert works" true (T.get t ~key:"sameprefC" = Some "3");
  T.validate t

let deep_layer_prune_cascades () =
  let t = mk () in
  (* 24-byte shared prefix: three nested layers for one key. *)
  let deep = "0123456701234567012345670" in
  T.put t ~key:deep ~value:"deep";
  T.put t ~key:"01234567" ~value:"shallow";
  check "get deep" true (T.get t ~key:deep = Some "deep");
  check "rm deep" true (T.remove t ~key:deep);
  check "shallow survives" true (T.get t ~key:"01234567" = Some "shallow");
  T.validate t;
  check_int "one entry" 1 (T.cardinal t)

let scan_after_removals_in_order () =
  let t = mk () in
  for i = 0 to 999 do
    T.put t ~key:(Printf.sprintf "k%04d" i) ~value:""
  done;
  (* Remove three quarters, including whole aligned blocks (emptying many
     leaves). *)
  for i = 0 to 999 do
    if i mod 4 <> 0 then ignore (T.remove t ~key:(Printf.sprintf "k%04d" i))
  done;
  T.validate t;
  let got = List.map fst (T.scan t ~start:"" ~n:1000) in
  let expect = List.init 250 (fun i -> Printf.sprintf "k%04d" (i * 4)) in
  Alcotest.(check (list string)) "order preserved" expect got

let removal_tests =
  [
    Alcotest.test_case "remove all collapses tree" `Quick remove_all_collapses_tree;
    Alcotest.test_case "interleaved insert/remove" `Quick interleaved_insert_remove_stays_compact;
    Alcotest.test_case "empty layer pruned" `Quick empty_layer_is_pruned;
    Alcotest.test_case "deep layer prune" `Quick deep_layer_prune_cascades;
    Alcotest.test_case "scan after removals" `Quick scan_after_removals_in_order;
  ]

let tests = (fst tests, snd tests @ removal_tests)

(* --- key-suffix inlining (ksuf) ------------------------------------------ *)

let single_long_key_needs_no_layer () =
  let t = mk () in
  T.put t ~key:"a-very-long-key-without-collisions" ~value:"v";
  check_int "no layer created" 0 (stat t "layer_creations");
  check "get" true (T.get t ~key:"a-very-long-key-without-collisions" = Some "v");
  (* Prefix lookups must not match the suffix entry. *)
  check "prefix absent" true (T.get t ~key:"a-very-lo" = None);
  check "longer absent" true
    (T.get t ~key:"a-very-long-key-without-collisionsX" = None);
  T.validate t

let suffix_entry_update_and_remove () =
  let t = mk () in
  let k = "long-key/0123456789" in
  T.put t ~key:k ~value:"v1";
  T.put t ~key:k ~value:"v2";
  check "updated in place" true (T.get t ~key:k = Some "v2");
  check_int "still no layer" 0 (stat t "layer_creations");
  check_int "update counted" 1 (stat t "updates");
  check "removed" true (T.remove t ~key:k);
  check "gone" true (T.get t ~key:k = None);
  check_int "empty" 0 (T.cardinal t)

let collision_converts_to_layer () =
  let t = mk () in
  T.put t ~key:"shared!!suffix-one" ~value:"1";
  check_int "first long key: no layer" 0 (stat t "layer_creations");
  T.put t ~key:"shared!!suffix-two" ~value:"2";
  check "conversion created a layer" true (stat t "layer_creations" >= 1);
  check "one" true (T.get t ~key:"shared!!suffix-one" = Some "1");
  check "two" true (T.get t ~key:"shared!!suffix-two" = Some "2");
  T.validate t;
  Alcotest.(check (list string)) "ordered"
    [ "shared!!suffix-one"; "shared!!suffix-two" ]
    (List.map fst (T.scan t ~start:"" ~n:10))

let deep_collision_cascades () =
  (* Collide again inside the converted layer: 16-byte shared prefix. *)
  let t = mk () in
  T.put t ~key:"shared!!shared!!A" ~value:"a";
  T.put t ~key:"shared!!shared!!B" ~value:"b";
  check "two layers (cascading conversion)" true
    (stat t "layer_creations" >= 2);
  check "a" true (T.get t ~key:"shared!!shared!!A" = Some "a");
  check "b" true (T.get t ~key:"shared!!shared!!B" = Some "b");
  T.validate t

let suffix_scan_ordering () =
  let t = mk () in
  (* Mix: short terminal, exact-8 terminal, suffix entry, layered keys,
     all sharing or neighbouring slices. *)
  let keys =
    [ "ab"; "abcdefgh"; "abcdefghSOLO"; "zz-pair-1"; "zz-pair-2"; "zz" ]
  in
  List.iter (fun k -> T.put t ~key:k ~value:k) keys;
  T.validate t;
  Alcotest.(check (list string)) "forward order" (List.sort compare keys)
    (List.map fst (T.scan t ~start:"" ~n:10));
  (* Start mid-way between a suffix entry and its slice. *)
  Alcotest.(check (list string)) "start inside suffix range"
    [ "abcdefghSOLO"; "zz" ]
    (List.map fst (T.scan t ~start:"abcdefghA" ~n:2))

let suffix_model_property =
  (* The earlier model property with heavily colliding long keys. *)
  let open QCheck in
  let key_gen =
    Gen.(
      oneof
        [
          map (fun i -> Printf.sprintf "%04d" i) (int_bound 50);
          map (fun i -> Printf.sprintf "prefix!!%04d" i) (int_bound 50);
          map (fun i -> Printf.sprintf "prefix!!deeper!!%04d" i) (int_bound 50);
          map (fun i -> Printf.sprintf "solo-%04d-%s" i (String.make (i mod 20) 'x')) (int_bound 50);
        ])
  in
  Test.make ~name:"tree with long keys matches Map model" ~count:40
    (make Gen.(list_size (int_range 50 400) (pair (int_bound 9) key_gen)))
    (fun ops ->
      let t = mk () in
      let model = ref SM.empty in
      let step = ref 0 in
      let ok = ref true in
      List.iter
        (fun (d, k) ->
          incr step;
          if d < 5 then begin
            let v = Printf.sprintf "%d" !step in
            T.put t ~key:k ~value:v;
            model := SM.add k v !model
          end
          else if d < 7 then begin
            let a = T.remove t ~key:k in
            if a <> SM.mem k !model then ok := false;
            model := SM.remove k !model
          end
          else if T.get t ~key:k <> SM.find_opt k !model then ok := false)
        ops;
      T.validate t;
      let scanned = List.map fst (T.scan t ~start:"" ~n:max_int) in
      !ok
      && scanned = List.map fst (SM.bindings !model)
      && T.cardinal t = SM.cardinal !model)

let ksuf_tests =
  [
    Alcotest.test_case "single long key: no layer" `Quick single_long_key_needs_no_layer;
    Alcotest.test_case "suffix update and remove" `Quick suffix_entry_update_and_remove;
    Alcotest.test_case "collision converts to layer" `Quick collision_converts_to_layer;
    Alcotest.test_case "deep collision cascades" `Quick deep_collision_cascades;
    Alcotest.test_case "suffix scan ordering" `Quick suffix_scan_ordering;
    QCheck_alcotest.to_alcotest suffix_model_property;
  ]

let tests = (fst tests, snd tests @ ksuf_tests)
