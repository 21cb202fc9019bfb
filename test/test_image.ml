(* Tests for NVM image save/load (restart-across-process durability). *)

module Sys_ = Incll.System

let check = Alcotest.(check bool)

let key8 i = Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int i))

let cfg =
  {
    Sys_.default_config with
    Sys_.nvm =
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = 4 * 1024 * 1024;
        extlog_bytes = 256 * 1024;
      };
    epoch_len_ns = 1.0e15;
  }

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let save_load_roundtrip () =
  let s = Sys_.create ~config:cfg Sys_.Incll in
  for i = 0 to 499 do
    Sys_.put s ~key:(key8 i) ~value:(Printf.sprintf "v%03d" i)
  done;
  Sys_.advance_epoch s;
  let path = tmp "incll_image_test.img" in
  Nvm.Image.save (Sys_.region s) ~path;
  check "size recorded" true
    (Nvm.Image.image_size ~path = Nvm.Region.size (Sys_.region s));
  (* "Reboot": load into a fresh region and recover the system. *)
  let region = Nvm.Image.load cfg.Sys_.nvm ~path in
  let s2 = Sys_.attach ~config:cfg Sys_.Incll region in
  for i = 0 to 499 do
    check "value survives restart" true
      (Sys_.get s2 ~key:(key8 i) = Some (Printf.sprintf "v%03d" i))
  done;
  Masstree.Tree.validate (Sys_.tree s2);
  Stdlib.Sys.remove path

let uncheckpointed_work_lost_across_restart () =
  let s = Sys_.create ~config:cfg Sys_.Incll in
  for i = 0 to 99 do
    Sys_.put s ~key:(key8 i) ~value:"durable!"
  done;
  Sys_.advance_epoch s;
  (* Dirty work after the checkpoint never reaches the persisted image
     unless a crash/flush moves it; a saved image is the persisted view. *)
  Sys_.put s ~key:(key8 1000) ~value:"volatile";
  let path = tmp "incll_image_test2.img" in
  Nvm.Image.save (Sys_.region s) ~path;
  let region = Nvm.Image.load cfg.Sys_.nvm ~path in
  let s2 = Sys_.attach ~config:cfg Sys_.Incll region in
  check "checkpointed survives" true (Sys_.get s2 ~key:(key8 0) = Some "durable!");
  check "uncheckpointed lost" true (Sys_.get s2 ~key:(key8 1000) = None);
  Stdlib.Sys.remove path

let corrupt_image_rejected () =
  let s = Sys_.create ~config:cfg Sys_.Incll in
  Sys_.put s ~key:"k" ~value:"v";
  Sys_.advance_epoch s;
  let path = tmp "incll_image_test3.img" in
  Nvm.Image.save (Sys_.region s) ~path;
  (* Flip one byte in the payload. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 100_000 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  check "corruption detected" true
    (try
       ignore (Nvm.Image.load cfg.Sys_.nvm ~path);
       false
     with Failure _ -> true);
  Stdlib.Sys.remove path

let non_image_rejected () =
  let path = tmp "incll_image_test4.img" in
  let oc = open_out_bin path in
  output_string oc (String.make 4096 'z');
  close_out oc;
  check "bad magic detected" true
    (try
       ignore (Nvm.Image.load cfg.Sys_.nvm ~path);
       false
     with Failure _ -> true);
  Stdlib.Sys.remove path

let mid_epoch_image_recovers () =
  (* Saving mid-epoch is like crashing: the loaded system rolls back. *)
  let s = Sys_.create ~config:cfg Sys_.Incll in
  for i = 0 to 99 do
    Sys_.put s ~key:(key8 i) ~value:"committed"
  done;
  Sys_.advance_epoch s;
  for i = 0 to 49 do
    Sys_.put s ~key:(key8 i) ~value:"dirty!!!!"
  done;
  (* Force some of the dirty epoch into the persisted image, like cache
     pressure would. *)
  Sys_.crash_with s ~choose:(fun ~line:_ ~nwrites -> nwrites / 2);
  let s = Sys_.recover s in
  let path = tmp "incll_image_test5.img" in
  Nvm.Image.save (Sys_.region s) ~path;
  let region = Nvm.Image.load cfg.Sys_.nvm ~path in
  let s2 = Sys_.attach ~config:cfg Sys_.Incll region in
  for i = 0 to 99 do
    check "rolled back to checkpoint" true
      (Sys_.get s2 ~key:(key8 i) = Some "committed")
  done;
  Stdlib.Sys.remove path

(* A live file, attached and never saved, tracks the persisted view, so
   a checkpointed store reloaded from it recovers everything it acked. *)
let mirror_roundtrip () =
  let path = Filename.temp_file "incll_mirror" ".img" in
  Fun.protect ~finally:(fun () -> Stdlib.Sys.remove path) @@ fun () ->
  let s = Sys_.create ~config:cfg Sys_.Incll in
  Nvm.Image.attach (Sys_.region s) ~path;
  for i = 0 to 199 do
    Sys_.put s ~key:(Printf.sprintf "m%03d" i) ~value:(string_of_int i)
  done;
  Sys_.advance_epoch s;
  check "file is live" true (Nvm.Image.is_live ~path);
  let region = Nvm.Image.load cfg.Sys_.nvm ~path in
  let r = Sys_.attach ~config:cfg Sys_.Incll region in
  for i = 0 to 199 do
    check "mirrored key survives" true
      (Sys_.get r ~key:(Printf.sprintf "m%03d" i) = Some (string_of_int i))
  done

let refused path f =
  match f () with
  | _ -> false
  | exception Failure m ->
      String.length m > String.length path
      && String.sub m 0 (String.length path) = path

let live_image_of_another_size_refused () =
  let path = Filename.temp_file "incll_mirror" ".img" in
  Fun.protect ~finally:(fun () -> Stdlib.Sys.remove path) @@ fun () ->
  Nvm.Image.attach (Sys_.region (Sys_.create ~config:cfg Sys_.Incll)) ~path;
  let bigger = { cfg.Sys_.nvm with Nvm.Config.size_bytes = 8 * 1024 * 1024 } in
  check "size mismatch refused, naming the file" true
    (refused path (fun () -> Nvm.Image.load bigger ~path))

let bad_magic_refused () =
  let s = Sys_.create ~config:cfg Sys_.Incll in
  let path = tmp "incll_image_test6.img" in
  Nvm.Image.save (Sys_.region s) ~path;
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.write fd (Bytes.make 1 '\x00') 0 1);
  Unix.close fd;
  check "bad magic refused, naming the file" true
    (refused path (fun () -> Nvm.Image.load cfg.Sys_.nvm ~path));
  Stdlib.Sys.remove path

(* [Store.Sharded.open_images] over a directory another store left:
   another size or shard count is refused with every file untouched, and
   the same config recovers the store. *)
let image_dir_refused_never_wiped () =
  let dir = Filename.temp_dir "incll_image_dir" "" in
  let shard i = Filename.concat dir (Printf.sprintf "shard%d.img" i) in
  let cleanup () =
    Array.iter (fun f -> Stdlib.Sys.remove (Filename.concat dir f))
      (Stdlib.Sys.readdir dir);
    Stdlib.Sys.rmdir dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let open_images ?(config = cfg) shards =
    Store.Sharded.open_images ~config Sys_.Incll ~shards ~dir
  in
  let store, recovered = open_images 2 in
  check "fresh dir not recovered" false recovered;
  for i = 0 to 299 do
    Store.Sharded.put store ~key:(key8 i) ~value:(Printf.sprintf "v%03d" i)
  done;
  Store.Sharded.advance_epochs store;
  let digests () = List.map (fun i -> Digest.file (shard i)) [ 0; 1 ] in
  let before = digests () in
  let nvm = { cfg.Sys_.nvm with Nvm.Config.size_bytes = 8 * 1024 * 1024 } in
  let bigger = { cfg with Sys_.nvm } in
  List.iter
    (fun (what, path, reopen) ->
      check (what ^ " refused, naming the file") true (refused path reopen);
      check (what ^ ": files unchanged") true (digests () = before))
    [
      ("another size", shard 0, fun () -> open_images ~config:bigger 2);
      ("more shards", shard 2, fun () -> open_images 3);
      ("fewer shards", shard 1, fun () -> open_images 1);
    ];
  check "no file added" false (Stdlib.Sys.file_exists (shard 2));
  let store, recovered = open_images 2 in
  check "same config recovers" true recovered;
  for i = 0 to 299 do
    check "acked key recovered" true
      (Store.Sharded.get store ~key:(key8 i) = Some (Printf.sprintf "v%03d" i))
  done

let tests =
  ( "image",
    [
      Alcotest.test_case "save/load roundtrip" `Quick save_load_roundtrip;
      Alcotest.test_case "uncheckpointed work lost" `Quick uncheckpointed_work_lost_across_restart;
      Alcotest.test_case "corrupt image rejected" `Quick corrupt_image_rejected;
      Alcotest.test_case "non-image rejected" `Quick non_image_rejected;
      Alcotest.test_case "mid-epoch image recovers" `Quick mid_epoch_image_recovers;
      Alcotest.test_case "NVM mirror round trip" `Quick mirror_roundtrip;
      Alcotest.test_case "live image of another size refused" `Quick
        live_image_of_another_size_refused;
      Alcotest.test_case "bad magic refused" `Quick bad_magic_refused;
      Alcotest.test_case "image dir refused, never wiped" `Quick
        image_dir_refused_never_wiped;
    ] )
