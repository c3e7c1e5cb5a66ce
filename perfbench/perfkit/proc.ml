(* Child processes (the `cfpm serve` under test) and memory readings.

   A server counts as started when it prints its `listening` line on
   stderr — set-up waits for that line, never for a sleep.  Every child
   is registered so an early exit of the benchmark still kills and reaps
   it. *)

type child = {
  pid : int;
  err : Unix.file_descr;  (* read end of the child's stderr *)
  said : Buffer.t;  (* everything read from [err] so far *)
  mutable reaped : bool;
}

let live : child list ref = ref []

let reap c =
  if not c.reaped then begin
    c.reaped <- true;
    live := List.filter (fun x -> x != c) !live;
    let rec wait () =
      match Unix.waitpid [] c.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    try Unix.close c.err with Unix.Unix_error _ -> ()
  end

let kill_all () =
  List.iter
    (fun c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap c)
    !live

let () = at_exit kill_all

(* One read from the child's stderr; [false] at end of file. *)
let pull c =
  let chunk = Bytes.create 4096 in
  match Unix.read c.err chunk 0 4096 with
  | 0 -> false
  | n ->
    Buffer.add_subbytes c.said chunk 0 n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | exception Unix.Unix_error _ -> false

let mentions c text =
  let s = Buffer.contents c.said and n = String.length text in
  let rec at i = i + n <= String.length s && (String.sub s i n = text || at (i + 1)) in
  at 0

(* Read stderr until it mentions [ready]; [Error] carries what the child
   said when it exits first or stays silent past [timeout] seconds. *)
let wait_for c ~ready ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if mentions c ready then Ok ()
    else
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then
        Error (Printf.sprintf "no %S within %.0f s: %s" ready timeout (Buffer.contents c.said))
      else
        match Unix.select [ c.err ] [] [] left with
        | [], _, _ -> loop ()
        | _ ->
          if pull c then loop ()
          else Error (Printf.sprintf "exited before %S: %s" ready (Buffer.contents c.said))
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let spawn ?(env = Unix.environment ()) exe args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close null)
      (fun () ->
        Unix.create_process_env exe (Array.of_list (exe :: args)) env null null w)
  in
  let c = { pid; err = r; said = Buffer.create 256; reaped = false } in
  live := c :: !live;
  c

(* SIGTERM (the server drains and exits), then read stderr to its end
   and reap.  Returns everything the child printed. *)
let stop c =
  if not c.reaped then begin
    (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
    while pull c do
      ()
    done;
    reap c
  end;
  Buffer.contents c.said

(* Peak resident set (VmHWM) of a process, in MiB; [None] when /proc
   has no such reading. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec find () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf_opt (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          | _ -> find ()
        in
        find ())
