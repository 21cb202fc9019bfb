(* Tests for Masstree's permutation word, including a model-based qcheck
   property (this word is the heart of the InCLLp argument: one-word undo
   of any same-epoch insert/delete sequence, §4.1.1). *)

module P = Masstree.Permutation

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let empty_is_valid () =
  check "valid" true (P.is_valid P.empty);
  check_int "count" 0 (P.count P.empty);
  Alcotest.(check (list int)) "free slots ascending"
    (List.init P.width (fun i -> i))
    (P.free_slots P.empty)

let insert_at_front () =
  let p, s0 = P.insert P.empty ~rank:0 in
  check_int "slot 0 first" 0 s0;
  let p, s1 = P.insert p ~rank:0 in
  check_int "slot 1 second" 1 s1;
  Alcotest.(check (list int)) "order" [ 1; 0 ] (P.active_slots p);
  check "valid" true (P.is_valid p)

let insert_until_full () =
  let p = ref P.empty in
  for i = 0 to P.width - 1 do
    check "not full" false (P.is_full !p);
    let p', _ = P.insert !p ~rank:i in
    p := p'
  done;
  check "full" true (P.is_full !p);
  check "insert on full raises" true
    (try
       ignore (P.insert !p ~rank:0);
       false
     with Invalid_argument _ -> true)

let remove_restores_slot_to_free () =
  let p, s = P.insert P.empty ~rank:0 in
  let p, _ = P.insert p ~rank:1 in
  let p, removed = P.remove p ~rank:0 in
  check_int "removed the slot" s removed;
  check_int "count" 1 (P.count p);
  check "slot free again" true (List.mem s (P.free_slots p));
  check "valid" true (P.is_valid p)

let remove_bad_rank_raises () =
  check "raises" true
    (try
       ignore (P.remove P.empty ~rank:0);
       false
     with Invalid_argument _ -> true)

(* Model: an int list of slots in sorted order. *)
let model_property =
  let open QCheck in
  Test.make ~name:"permutation matches list model" ~count:500
    (list_of_size Gen.(int_range 1 60) (pair bool (int_bound 13)))
    (fun ops ->
      let p = ref P.empty in
      let model = ref [] in
      List.iter
        (fun (is_insert, pos) ->
          if is_insert then begin
            if not (P.is_full !p) then begin
              let rank = pos mod (List.length !model + 1) in
              let p', slot = P.insert !p ~rank in
              p := p';
              let rec ins l i =
                if i = 0 then slot :: l
                else match l with [] -> [ slot ] | x :: r -> x :: ins r (i - 1)
              in
              model := ins !model rank
            end
          end
          else if !model <> [] then begin
            let rank = pos mod List.length !model in
            let p', slot = P.remove !p ~rank in
            p := p';
            assert (slot = List.nth !model rank);
            model := List.filteri (fun i _ -> i <> rank) !model
          end)
        ops;
      let mask_from rank =
        List.fold_left (fun m s -> m lor (1 lsl s)) 0
          (List.filteri (fun i _ -> i >= rank) !model)
      in
      P.is_valid !p
      && P.active_slots !p = !model
      && List.for_all
           (fun rank -> P.slots_from_rank !p ~rank = mask_from rank)
           (List.init (List.length !model + 2) Fun.id))

let single_word_undo_property =
  (* The InCLLp argument (Â§4.1.1): restoring the one permutation word
     recovers the original key-value set, PROVIDED no insert followed a
     remove in the sequence (that mixed case may overwrite a slot that the
     restored permutation still references, and is external-logged). *)
  let open QCheck in
  Test.make ~name:"one-word undo restores active set" ~count:500
    (pair
       (list_of_size Gen.(int_range 0 20) (int_bound 13))
       (list_of_size Gen.(int_range 1 40) (pair bool (int_bound 13))))
    (fun (seed_ranks, ops) ->
      let contents = Array.make P.width 0 in
      let stamp = ref 0 in
      let p0 = ref P.empty in
      List.iter
        (fun r ->
          if not (P.is_full !p0) then begin
            let p', slot = P.insert !p0 ~rank:(r mod (P.count !p0 + 1)) in
            p0 := p';
            incr stamp;
            contents.(slot) <- !stamp
          end)
        seed_ranks;
      let saved_perm = !p0 in
      let saved_contents = Array.copy contents in
      (* Run the epoch's operations, writing into acquired slots like the
         leaf does. *)
      let p = ref saved_perm in
      let removed = ref false in
      let mixed = ref false in
      List.iter
        (fun (is_insert, pos) ->
          if is_insert then begin
            if not (P.is_full !p) then begin
              if !removed then mixed := true;
              let p', slot = P.insert !p ~rank:(pos mod (P.count !p + 1)) in
              p := p';
              incr stamp;
              contents.(slot) <- !stamp
            end
          end
          else if P.count !p > 0 then begin
            p := fst (P.remove !p ~rank:(pos mod P.count !p));
            removed := true
          end)
        ops;
      (* Roll back the permutation word alone. *)
      let restored = saved_perm in
      if !mixed then true (* external log handles this case *)
      else
        List.for_all
          (fun slot -> contents.(slot) = saved_contents.(slot))
          (P.active_slots restored))

let tests =
  ( "permutation",
    [
      Alcotest.test_case "empty valid" `Quick empty_is_valid;
      Alcotest.test_case "insert at front" `Quick insert_at_front;
      Alcotest.test_case "insert until full" `Quick insert_until_full;
      Alcotest.test_case "remove frees slot" `Quick remove_restores_slot_to_free;
      Alcotest.test_case "remove bad rank" `Quick remove_bad_rank_raises;
      QCheck_alcotest.to_alcotest model_property;
      QCheck_alcotest.to_alcotest single_word_undo_property;
    ] )
