(* Measurement primitives shared by every workload: the clock, allocation
   and memory counters, order statistics, and the in-memory span recorder
   the traced runs attribute time with. *)

module Clock = Ewalk_obs.Clock

let now_ns = Clock.now_ns

(* Wall seconds of [f ()], with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, Clock.elapsed_s t0)

(* Minor-heap words allocated by the calling domain during [f ()]. *)
let words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Heap bytes reachable from [v] (shared sub-structure counted once). *)
let reachable_bytes v =
  float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8))

(* -- host speed ------------------------------------------------------------ *)

(* On a shared host, other tenants' use of the caches and memory makes
   the same code run up to ~40% slower for tens of seconds at a time,
   on every workload at once.  A fixed reference kernel, timed next to
   each measured interval, tracks that drift: a chase through one
   random cycle over [chase_words] words (64 MB, far past the private
   caches, like the n = 10^6 walk), built from a constant seed so that
   every run of every commit chases the same cycle.  The cycle lives
   outside the OCaml heap, so it does not change how often the
   program's major GC runs.  [scaled] converts wall seconds into
   seconds at the host speed at which one load of the chase takes
   [nominal_ns_per_load]. *)
let chase_words = 1 lsl 23
let chase_loads = 1_000_000
let nominal_ns_per_load = 130.0

let chase =
  lazy
    (let a = Bigarray.(Array1.create int c_layout chase_words) in
     for i = 0 to chase_words - 1 do
       a.{i} <- i
     done;
     let st = Random.State.make [| 1805 |] in
     (* Sattolo's shuffle: a single cycle through every slot. *)
     for i = chase_words - 1 downto 1 do
       let j = Random.State.int st i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

(* Nanoseconds per load of one chase. *)
let chase_ns () =
  let a = Lazy.force chase in
  let t0 = now_ns () in
  let i = ref 0 in
  for _ = 1 to chase_loads do
    i := Bigarray.Array1.unsafe_get a !i
  done;
  ignore (Sys.opaque_identity !i);
  float_of_int (Clock.elapsed_ns t0) /. float_of_int chase_loads

type sample = {
  wall_s : float;
  nominal_s : float;  (** [wall_s] at the nominal host speed *)
  chase_ns : float;  (** the mean of the chases before and after *)
  after_ns : float;  (** the chase after, which can open the next interval *)
}

(* [f ()] timed between two chases; [before] reuses a chase just taken. *)
let scaled ?before f =
  let before = match before with Some b -> b | None -> chase_ns () in
  let r, wall_s = timed f in
  let after_ns = chase_ns () in
  let chase_ns = (before +. after_ns) /. 2. in
  let nominal_s = wall_s *. nominal_ns_per_load /. chase_ns in
  (r, { wall_s; nominal_s; chase_ns; after_ns })

(* Peak resident set of this process in MB (VmHWM), less the chase's
   array once it exists, or [nan] when /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line -> (
                match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
                | kb ->
                    let chase_kb =
                      if Lazy.is_val chase then
                        chase_words * (Sys.word_size / 8) / 1024
                      else 0
                    in
                    float_of_int (kb - chase_kb) /. 1024.
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file)
                  ->
                    scan ())
          in
          scan ())

(* Quantile by linear interpolation on the sorted sample. *)
let quantile = Ewalk_analysis.Stats.quantile
let median xs = quantile xs 0.5

(* -- spans ----------------------------------------------------------------- *)

(* A span is a named interval with a parent; spans stay in memory until
   the traced run reports.  Layer names are the repo's module names.
   [record] adds a span measured elsewhere (a pool lane), so parallel
   work is attributed in lane-seconds without a lock on the hot path. *)
type span = { id : int; name : string; parent : int; dur_ns : int }

let spans : span list ref = ref []
let stack = ref [ 0 ]
let next_id = ref 1

let record ?parent name dur_ns =
  let id = !next_id in
  incr next_id;
  let parent = match parent with Some p -> p | None -> List.hd !stack in
  spans := { id; name; parent; dur_ns } :: !spans;
  id

(* The open span's id is reserved on entry so children can name it. *)
let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = List.hd !stack in
  stack := id :: !stack;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      stack := List.tl !stack;
      spans := { id; name; parent; dur_ns = Clock.elapsed_ns t0 } :: !spans)
    f

(* Seconds spent in spans called [name], net of their direct children
   (self time). *)
let self_s name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let sum = Option.value ~default:0 (Hashtbl.find_opt children c.parent) in
      Hashtbl.replace children c.parent (sum + c.dur_ns))
    !spans;
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        acc + s.dur_ns
        - Option.value ~default:0 (Hashtbl.find_opt children s.id))
    0 !spans
  |> Clock.ns_to_s

(* -- scratch state --------------------------------------------------------- *)

(* Daemon state, snapshots and session files live under this directory
   of the working tree and are removed when the run ends. *)
let state_root = ".perfbench-state"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
