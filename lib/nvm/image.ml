let file_magic = 0x1AC1_1F11_EL (* "incll file image" *)
let file_format = 1L
let header_bytes = 64

let checksum bytes =
  (* Cheap rolling checksum over the image; corruption detection only. *)
  let acc = ref 0xcbf29ce484222325L in
  let n = Bytes.length bytes in
  let i = ref 0 in
  while !i + 8 <= n do
    acc := Int64.mul (Int64.logxor !acc (Bytes.get_int64_le bytes !i)) 0x100000001b3L;
    i := !i + 8
  done;
  !acc

let save region ~path =
  let size = Region.size region in
  (* Uncharged: saving is not part of the simulated instruction set. *)
  let image = Region.read_persisted region 0 ~len:size in
  let header = Bytes.make header_bytes '\000' in
  Bytes.set_int64_le header 0 file_magic;
  Bytes.set_int64_le header 8 file_format;
  Bytes.set_int64_le header 16 (Int64.of_int size);
  Bytes.set_int64_le header 24 (checksum image);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bytes oc header;
      output_bytes oc image)

let read_header ic =
  let header = Bytes.create header_bytes in
  really_input ic header 0 header_bytes;
  if Bytes.get_int64_le header 0 <> file_magic then
    failwith "Image.load: not an incll image file";
  if Bytes.get_int64_le header 8 <> file_format then
    failwith "Image.load: unsupported image format version";
  let size = Int64.to_int (Bytes.get_int64_le header 16) in
  let sum = Bytes.get_int64_le header 24 in
  (size, sum)

let image_size ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> fst (read_header ic))

let load config ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size, sum = read_header ic in
      if config.Config.size_bytes < size then
        failwith "Image.load: config smaller than the saved image";
      let image = Bytes.create size in
      really_input ic image 0 size;
      if checksum image <> sum then failwith "Image.load: corrupt image";
      let region = Region.create config in
      (* The machine rebooted with this NVM content and a cold, clean
         cache. *)
      Region.install_image region image;
      region)
