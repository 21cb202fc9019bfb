(* Tests for internal (interior) B+-tree nodes. *)

module I = Masstree.Internal

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk () =
  let cfg =
    {
      Nvm.Config.default with
      Nvm.Config.size_bytes = 2 * 1024 * 1024;
      extlog_bytes = 64 * 1024;
    }
  in
  let r = Nvm.Region.create cfg in
  Nvm.Superblock.format r;
  let em = Epoch.Manager.create r in
  (r, Alloc.Api.of_durable (Alloc.Durable.create em))

let create_basics () =
  let r, a = mk () in
  let n = I.create a r ~layer:2 in
  check "64-aligned" true (n land 63 = 0);
  check "not a leaf" false (Masstree.Leaf.is_leaf_node r n);
  check_int "layer" 2 (I.layer r n);
  check_int "no keys" 0 (I.nkeys r n);
  check "not full" false (I.is_full r n)

let build r n keys children =
  List.iteri (fun i k -> I.set_key r n ~i ~hi:0 ~lo:k) keys;
  List.iteri (fun i c -> I.set_child r n ~i c) children;
  I.set_nkeys r n (List.length keys)

let search_child_routing () =
  let r, a = mk () in
  let n = I.create a r ~layer:0 in
  build r n [ 10; 20; 30 ] [ 100; 101; 102; 103 ];
  check_int "below first" 0 (I.search_child r n ~hi:0 ~lo:5);
  (* Separator semantics: keys >= sep go right. *)
  check_int "equal first" 1 (I.search_child r n ~hi:0 ~lo:10);
  check_int "between" 1 (I.search_child r n ~hi:0 ~lo:15);
  check_int "equal middle" 2 (I.search_child r n ~hi:0 ~lo:20);
  check_int "above last" 3 (I.search_child r n ~hi:0 ~lo:35)

let insert_separator_shifts () =
  let r, a = mk () in
  let n = I.create a r ~layer:0 in
  build r n [ 10; 30 ] [ 100; 101; 102 ];
  I.insert_separator r n ~at:1 ~hi:0 ~lo:20 ~right:999;
  check_int "three keys" 3 (I.nkeys r n);
  Alcotest.(check (list int)) "keys (low halves)"
    [ 10; 20; 30 ]
    (List.init 3 (fun i -> I.key r n ~i));
  Alcotest.(check (list int)) "children"
    [ 100; 101; 999; 102 ]
    (List.init 4 (fun i -> I.child r n ~i))

let insert_separator_at_ends () =
  let r, a = mk () in
  let n = I.create a r ~layer:0 in
  build r n [ 20 ] [ 100; 101 ];
  I.insert_separator r n ~at:0 ~hi:0 ~lo:10 ~right:200;
  I.insert_separator r n ~at:2 ~hi:0 ~lo:30 ~right:300;
  Alcotest.(check (list int)) "keys (low halves)"
    [ 10; 20; 30 ]
    (List.init 3 (fun i -> I.key r n ~i));
  Alcotest.(check (list int)) "children"
    [ 100; 200; 101; 300 ]
    (List.init 4 (fun i -> I.child r n ~i))

let full_rejects_insert () =
  let r, a = mk () in
  let n = I.create a r ~layer:0 in
  build r n
    (List.init I.width (fun i -> (i + 1) * 10))
    (List.init (I.width + 1) (fun i -> 1000 + i));
  check "full" true (I.is_full r n);
  check "raises" true
    (try
       I.insert_separator r n ~at:0 ~hi:0 ~lo:5 ~right:1;
       false
     with Invalid_argument _ -> true)

let logged_epoch_roundtrip () =
  let r, a = mk () in
  let n = I.create a r ~layer:0 in
  check_int "initial" 0 (I.logged_epoch r n);
  I.set_logged_epoch r n 42;
  check_int "set" 42 (I.logged_epoch r n)

let tests =
  ( "internal",
    [
      Alcotest.test_case "create basics" `Quick create_basics;
      Alcotest.test_case "search_child routing" `Quick search_child_routing;
      Alcotest.test_case "insert separator shifts" `Quick insert_separator_shifts;
      Alcotest.test_case "insert at ends" `Quick insert_separator_at_ends;
      Alcotest.test_case "full rejects insert" `Quick full_rejects_insert;
      Alcotest.test_case "logged epoch" `Quick logged_epoch_roundtrip;
    ] )
