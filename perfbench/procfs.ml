(* Outside-in process probes read from /proc (Linux). *)

(* "" when the file cannot be read, e.g. a thread that exited between
   listing /proc/<pid>/task and reading its status. *)
let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> try In_channel.input_all ic with Sys_error _ -> "")
  | exception Sys_error _ -> ""

(* "Key:   value kB" lines of /proc/<pid>/status. *)
let status_field ~pid key =
  let prefix = key ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid))
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           let rest = String.sub line (String.length prefix)
               (String.length line - String.length prefix) in
           match String.split_on_char ' ' (String.trim rest) with
           | v :: _ -> int_of_string_opt v
           | [] -> None
         else None)
  |> Option.value ~default:0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb ~pid = float_of_int (status_field ~pid "VmHWM") /. 1024.0

(* Clock ticks per second of /proc/<pid>/stat times ([sysconf(_SC_CLK_TCK)]
   is 100 on every Linux ABI the benchmark targets). *)
let clk_tck = 100.0

(* utime + stime of a process, in seconds. Fields 14 and 15 of
   /proc/<pid>/stat, counted after the parenthesised command name (which
   may itself contain spaces). *)
let cpu_s ~pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt s ')' with
  | None -> 0.0
  | Some i ->
      let fields =
        String.split_on_char ' '
          (String.trim (String.sub s (i + 1) (String.length s - i - 1)))
      in
      (* fields.(0) is field 3 (state); utime is field 14. *)
      let f n = float_of_string (List.nth fields (n - 3)) in
      (f 14 +. f 15) /. clk_tck

let tasks ~pid =
  match Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with
  | a -> Array.to_list a
  | exception Sys_error _ -> []

(* Voluntary + involuntary context switches summed over every thread. *)
let ctx_switches ~pid =
  List.fold_left
    (fun acc tid ->
      let p = Printf.sprintf "%d/task/%s" pid tid in
      acc
      + status_field ~pid:p "voluntary_ctxt_switches"
      + status_field ~pid:p "nonvoluntary_ctxt_switches")
    0 (tasks ~pid)

let first_line path =
  match String.split_on_char '\n' (read_file path) with l :: _ -> l | [] -> ""

let cpu_model () =
  String.split_on_char '\n' (read_file "/proc/cpuinfo")
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"model name" l then
           match String.index_opt l ':' with
           | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | None -> None
         else None)
  |> Option.value ~default:"unknown"
