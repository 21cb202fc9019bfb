let header_bytes = 16
let aligned_payload_offset = 64

(* All multiples of 64. 64-byte chunks hold the 32-byte value buffers of
   the paper's footnote 6 (payload capacity 48); 448-byte chunks hold the
   384-byte cache-aligned tree nodes. *)
let sizes = [| 64; 128; 192; 256; 448; 512; 1024; 2048; 4096; 8192 |]

let count = Array.length sizes

let () = assert (count <= Nvm.Layout.max_size_classes)

let chunk_size i =
  if i < 0 || i >= count then invalid_arg "Size_class.chunk_size";
  sizes.(i)

(* Top-level loop: a local closure over [total] would be allocated on
   every allocation. *)
let rec find_from total i =
  if i >= count then
    invalid_arg (Printf.sprintf "Size_class: %d-byte chunk too large" total)
  else if sizes.(i) >= total then i
  else find_from total (i + 1)

let find_class total = find_from total 0

let class_of_payload payload =
  if payload < 0 then invalid_arg "Size_class.class_of_payload";
  find_class (payload + header_bytes)

let class_of_aligned_payload payload =
  if payload < 0 then invalid_arg "Size_class.class_of_aligned_payload";
  find_class (payload + aligned_payload_offset)

let payload_capacity ~cls ~aligned =
  chunk_size cls - if aligned then aligned_payload_offset else header_bytes

let chunk_of_payload p =
  match p land 63 with
  | 0 -> p - aligned_payload_offset
  | 16 -> p - header_bytes
  | _ -> invalid_arg "Size_class.chunk_of_payload: not a payload address"

let payload_of_chunk ~chunk ~aligned =
  chunk + if aligned then aligned_payload_offset else header_bytes
