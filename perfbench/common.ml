(* Shared plumbing for the workloads: the run's parameters, the scratch
   directory, timing, and the result record every workload returns. *)

type params = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;  (* CFPM_JOBS, pinned by run.py *)
}

(* What one window of a workload measured.  Items are the workload's
   unit of throughput: served transitions, answered queries or streamed
   vectors. *)
type window = {
  items_per_s : float;
  latencies_ms : float array;  (* one per operation timed at the client *)
  rss_mb : float;  (* peak resident set of the process doing the work *)
}

type outcome = {
  setup_s : float;  (* median of the set-up repetitions *)
  window : window;
  tally : Perfkit.Tally.t;
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let median_of xs = Perfkit.Stat.median (Array.of_list xs)

(* Set-up repetitions per run: set-up is short and noisy, so every run
   repeats it and reports the median.  The query set-up builds six exact
   models and takes seconds, so it repeats less. *)
let setup_reps = 9
let long_setup_reps = 5

let cfpm_exe = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "cfpm.exe"))

(* Scratch space inside the checkout, one directory per process; dune
   ignores directories whose name starts with an underscore. *)
let work_root = Filename.concat "perfbench" "_work"

let work_dir =
  lazy
    (let d = Filename.concat work_root (string_of_int (Unix.getpid ())) in
     List.iter
       (fun p -> try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
       [ work_root; d ];
     d)

let fresh_dir name =
  let d = Filename.concat (Lazy.force work_dir) name in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let rec remove path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let cleanup () =
  if Lazy.is_val work_dir then remove (Lazy.force work_dir);
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

let ok_or_die what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Guard.Error.to_string e))

let entry name =
  match Circuits.Suite.find name with
  | Some e -> e
  | None -> failwith ("unknown circuit " ^ name)

(* The same name -> netlist mapping `cfpm serve' installs for the PBO
   route of the worst op. *)
let resolve_circuit name =
  Option.map (fun e -> e.Circuits.Suite.build ()) (Circuits.Suite.find name)

let self_rss () = Option.value (Perfkit.Proc.peak_rss_mb None) ~default:0.0
