(* Pinned stream bytes.  [stream.golden] holds, for four cm85 streams,
   the MD5 of the deterministic [stats_json] rendering and of every
   checkpoint payload the run journals, plus one checkpoint payload in
   full.  The cases are the CLI's default phases, a different label
   stride and weight schedule, a drift window that does not line up
   with the 512-record blocks or the 2048-vector flushes, and a vector
   file with malformed lines on both sides of those seams.  The replay
   runs each case under several job counts and queue capacities and
   resumes from a truncated journal; every run must reproduce the file
   byte for byte. *)

let circuit_name = "cm85"
let seed = 2024
let checkpoint_every = 2048

(* The CLI default: [--phases 0.5:0.05:6144,0.85:0.4:6144]. *)
let phases =
  [
    { Stream.Source.sp = 0.5; st = 0.05; count = 6144 };
    { Stream.Source.sp = 0.85; st = 0.4; count = 6144 };
  ]

type case = {
  name : string;
  tweak : Stream.Pipeline.config -> Stream.Pipeline.config;
  from_file : bool;
}

let cases =
  [
    { name = "default"; tweak = Fun.id; from_file = false };
    {
      name = "sim3-exp";
      tweak =
        (fun c ->
          { c with sim_every = 3; weight = Stream.Weight.Exponential 0.01 });
      from_file = false;
    };
    {
      name = "window1000";
      tweak =
        (fun c ->
          { c with drift = { c.Stream.Pipeline.drift with Stream.Drift.window = 1000 } });
      from_file = false;
    };
    { name = "file"; tweak = Fun.id; from_file = true };
  ]

(* The vector file: 6000 records, regime switch halfway, malformed
   lines of every kind at record-block seams (511, 512, 1023, 1024) and
   around the first flush seam (the 2048th valid vector is record 2052),
   plus a few further on and one at the very end. *)
let file_records = 6000
let malformed_at = [ 0; 511; 512; 1023; 1024; 2052; 2054; 4103; 4104; 4105; 5999 ]

let file_contents bits =
  let prng = Stimulus.Prng.create 97 in
  let buf = Buffer.create (file_records * (bits + 1)) in
  let bad = [| ""; "0101"; String.make bits '2'; String.make (bits + 1) '1' |] in
  let nbad = ref 0 in
  for i = 0 to file_records - 1 do
    if List.mem i malformed_at then begin
      Buffer.add_string buf bad.(!nbad mod Array.length bad);
      incr nbad
    end
    else begin
      let p = if i < file_records / 2 then 0.2 else 0.85 in
      for _ = 1 to bits do
        Buffer.add_char buf (if Stimulus.Prng.bool prng ~p then '1' else '0')
      done
    end;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

type fixture = {
  model : Powermodel.Model.t;
  sim : Gatesim.Simulator.t;
  bits : int;
  file : string;
}

let fixture =
  lazy
    (let entry = Option.get (Circuits.Suite.find circuit_name) in
     let circuit = entry.Circuits.Suite.build () in
     let bits = Netlist.Circuit.input_count circuit in
     let file = Filename.temp_file "cfpm_stream_golden" ".txt" in
     at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
     Out_channel.with_open_bin file (fun oc ->
         output_string oc (file_contents bits));
     {
       model = Powermodel.Model.build circuit;
       sim = Gatesim.Simulator.create circuit;
       bits;
       file;
     })

let get = function
  | Ok v -> v
  | Error e -> failwith (Guard.Error.to_string e)

let source f case =
  if case.from_file then get (Stream.Source.of_file ~path:f.file ~bits:f.bits)
  else get (Stream.Source.generator ~seed ~bits:f.bits phases)

(* The journal's checkpoint payloads, each rendered compactly, oldest
   first. *)
let payloads path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Json.of_string line with
         | Ok j -> (
           match Json.member "payload" j with
           | Some p -> Json.to_string ~pretty:false p
           | None -> failwith "journal record without a payload")
         | Error e -> failwith ("journal record: " ^ e))

let md5 s = Digest.to_hex (Digest.string s)

type result = { stats : string; ckpts : string; first_payload : string }

(* One run of [case] with a fresh or resumed checkpoint journal at
   [path]. *)
let run ?(resume = false) ~jobs ~queue_capacity ~path case =
  let f = Lazy.force fixture in
  let cfg =
    case.tweak
      {
        Stream.Pipeline.default_config with
        jobs = Some jobs;
        queue_capacity;
        checkpoint = Some path;
        checkpoint_every;
        resume;
      }
  in
  let src = source f case in
  let o =
    Fun.protect
      ~finally:(fun () -> Stream.Source.close src)
      (fun () ->
        get (Stream.Pipeline.run ~simulator:f.sim cfg ~model:f.model ~source:src))
  in
  let ps = payloads path in
  {
    stats = md5 (Json.to_string (Stream.Pipeline.stats_json o));
    ckpts = md5 (String.concat "\n" ps);
    first_payload = List.hd ps;
  }

let with_journal k =
  let path = Filename.temp_file "cfpm_stream_golden" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () -> k path

let lines_of case r =
  [
    Printf.sprintf "%s stats %s" case.name r.stats;
    Printf.sprintf "%s ckpts %s" case.name r.ckpts;
  ]
  @
  if case.name = "window1000" then
    [ Printf.sprintf "%s payload %s" case.name r.first_payload ]
  else []

(* Keep the first [k] records of a checkpoint journal. *)
let keep_lines path k =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri (fun i l -> if i < k then output_string oc (l ^ "\n")) lines);
  List.length lines

(* What the golden file holds: one jobs-1 run per case. *)
let capture () =
  List.concat_map
    (fun case ->
      with_journal (fun path ->
          lines_of case (run ~jobs:1 ~queue_capacity:4096 ~path case)))
    cases
