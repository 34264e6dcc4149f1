(* The repository benchmark: two workloads that drive the solver
   libraries from outside and check their answers.

     paper_vco_b   the paper's error-matched VCO-B comparison (Fig. 12
                   and the speed-up claim): the n1 = 25 dense envelope
                   over 3 ms against the 1000 pts/cycle trapezoidal
                   transient over 300 us
     serve_sweep   a closed loop keeping two jobs outstanding against an
                   in-process serve daemon, on a seeded job mix

   Usage (from the repository root, after building):
     wbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
     wbench.exe --make-refs        rewrite the stored omega references

   The last line of standard output is one JSON object
   {"correct","attempted","failed","metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  A human table
   with units and sample counts precedes it.  The traced run also
   writes a Perfetto trace and a per-layer JSON under .perfbench/. *)

open Linalg
module Obs = Wampde_obs
module Env = Wampde.Envelope

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let smoke = ref false
let make_refs = ref false
let ref_dir = "perfbench/ref"
let out_dir = ".perfbench"

(* ---------- accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.printf "FAIL %s\n%!" msg)
    fmt

let now = Obs.now

(* Every run must end within 180 s; serve sessions stop feeding and
   cut their input at this point. *)
let deadline = now () +. 160.

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Sets the domains the next timed operation may use.  One means no
   pool worker exists at all: an idle worker still takes part in every
   stop-the-world minor collection, which slows single-domain timings
   and scatters them.  More only raises the pool size; as in the
   program, workers are spawned by the first parallel region, so a
   path without one (the dense envelope) runs as it would at one. *)
let use_domains n = if n <= 1 then Par.Pool.shutdown () else Par.Pool.set_jobs n

(* One attempted operation on [domains] domains: timed, and counted as
   failed (never dropped) when it raises.  It starts on a collected
   heap, so it does not pay for the garbage of whatever ran before. *)
let attempt ?(domains = 1) what f =
  incr attempted;
  use_domains domains;
  Gc.full_major ();
  let t0 = now () in
  let r = match f () with r -> Ok (r, now () -. t0) | exception e -> Error e in
  Par.Pool.set_jobs 1;
  match r with
  | Ok r -> Some r
  | Error e ->
    fail "%s raised %s" what (Printexc.to_string e);
    None

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---------- circuits, orbits and stored references ---------- *)

let frozen_a () = Circuit.Vco.default_params ~control:(fun _ -> 1.5) ()

let frozen_b () =
  Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ()

let build p = Obs.Span.span "bench.circuit.build" (fun () -> Circuit.Vco.build p)

let find_orbit frozen ~n1 =
  let dae = build frozen in
  Obs.Span.span "bench.orbit.find" (fun () ->
      Steady.Oscillator.find dae ~n1 ~period_hint:(1. /. 0.75) (Circuit.Vco.initial_state frozen))

(* Build the Bluestein FFT plan at [n1], a process-wide cache the
   timed legs would otherwise fill.  The domain pool is not warmed:
   single-domain legs run without it, and two-domain legs spawn it on
   first use, as the program does. *)
let warm_fft ~n1 = ignore (Fourier.Fft.fft (Array.make n1 Complex.one))

let transient_h = 1.333 /. 1000. (* 1000 points per nominal cycle *)

let transient dae (orbit : Steady.Oscillator.orbit) ~t_end =
  Obs.Span.span "bench.transient.integrate" (fun () ->
      Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end ~h:transient_h
        (Array.copy orbit.grid.(0)))

let envelope dae ~options ~t2_end ~h2 ~init =
  Obs.Span.span "bench.envelope.simulate" (fun () -> Env.simulate dae ~options ~t2_end ~h2 ~init)

(* A reference is omega(t2) of a tightly resolved envelope run, stored
   as "t omega" lines. *)
type reference = { name : string; ts : float array; omegas : float array }

let ref_specs =
  [
    (* VCO-B at h2 = 2 over the full 3 ms: the tight run behind Fig. 12 *)
    ("vco_b_n25_h2.txt", `B, 25, Structured.auto, 3000., 2.);
    (* VCO-A on the dense path at n1 = 101, h2 = 0.2 over the Fig. 7-9
       window: the reference of the serve jobs on VCO-A *)
    ("vco_a_n101_dense_h0.2.txt", `A, 101, Structured.Dense, 60., 0.2);
  ]

let write_refs () =
  List.iter
    (fun (file, circuit, n1, solver, t2_end, h2) ->
      let frozen, forced =
        match circuit with
        | `A -> (frozen_a (), Circuit.Vco.vco_a ())
        | `B -> (frozen_b (), Circuit.Vco.vco_b ())
      in
      let init = find_orbit frozen ~n1 in
      let options = Env.default_options ~n1 ~solver () in
      let res = Env.simulate (Circuit.Vco.build forced) ~options ~t2_end ~h2 ~init in
      let path = Filename.concat ref_dir file in
      let oc = open_out path in
      Array.iteri (fun i t -> Printf.fprintf oc "%.17g %.17g\n" t res.Env.omega.(i)) res.Env.t2;
      close_out oc;
      Printf.printf "wrote %s (%d points)\n" path (Array.length res.Env.t2))
    ref_specs

let load_ref file =
  let ic = open_in (Filename.concat ref_dir file) in
  let rec go acc =
    match input_line ic with
    | line -> go (Scanf.sscanf line " %f %f" (fun t w -> (t, w)) :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let pts = Array.of_list (go []) in
  { name = file; ts = Array.map fst pts; omegas = Array.map snd pts }

(* Linear interpolation of the reference at [t] (inside its span). *)
let ref_at r t =
  let n = Array.length r.ts in
  if t <= r.ts.(0) then r.omegas.(0)
  else if t >= r.ts.(n - 1) then r.omegas.(n - 1)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if r.ts.(mid) <= t then lo := mid else hi := mid
    done;
    let a = r.ts.(!lo) and b = r.ts.(!hi) in
    r.omegas.(!lo) +. ((t -. a) /. (b -. a) *. (r.omegas.(!hi) -. r.omegas.(!lo)))
  end

(* Largest relative deviation of omega(t2) samples from a reference. *)
let omega_dev r pts =
  List.fold_left
    (fun m (t, w) ->
      let w_ref = ref_at r t in
      Float.max m (Float.abs (w -. w_ref) /. Float.abs w_ref))
    0. pts

let omega_points (res : Env.result) = Array.to_list (Array.map2 (fun t w -> (t, w)) res.t2 res.omega)

(* Fig. 12 method: the k-th upward zero crossings of the recovered
   WaMPDE waveform and the transient, paired, as a fraction of a
   cycle. *)
let phase_error (res : Env.result) (traj : Transient.trajectory) ~t_end ~samples =
  let times = Array.init (samples + 1) (fun i -> t_end *. float_of_int i /. float_of_int samples) in
  let v_w = Array.map (Env.eval_waveform res ~component:Circuit.Vco.idx_voltage) times in
  let v_t = Array.map (Transient.interpolate traj Circuit.Vco.idx_voltage) times in
  Sigproc.Zero_crossing.max_abs_phase_error ~reference:(times, v_w) ~test:(times, v_t)

(* Bit-exact fingerprint of a job's outputs, so later jobs can be
   compared with the first without keeping its arrays alive (a large
   retained heap would slow the collector under the timed legs). *)
let digest_floats h xs =
  Array.fold_left
    (fun h x ->
      let b = Int64.bits_of_float x in
      Int64.(mul (logxor h b) 0x100000001b3L))
    h xs

let digest_envelope h (r : Env.result) =
  Array.fold_left (Array.fold_left digest_floats) (digest_floats h r.omega) r.slices

let digest_trajectory h (t : Transient.trajectory) =
  Array.fold_left digest_floats (digest_floats h t.times) t.states

(* ---------- reported values ---------- *)

type value = { v : float; unit_ : string; n : int; note : string }

let reported : (string * value) list ref = ref []
let info : (string * value) list ref = ref []
let report ?(note = "") name unit_ n v = reported := (name, { v; unit_; n; note }) :: !reported
let inform ?(note = "") name unit_ n v = info := (name, { v; unit_; n; note }) :: !info

let range xs = Printf.sprintf "range %.4g..%.4g" (Stats.quantile xs 0.) (Stats.quantile xs 1.)

(* Times are reported as the shortest of a run's samples.  Every sample
   of a timing repeats the same deterministic work, so only the host
   moves it: on a shared 2-vCPU virtual machine the same code runs up to
   1.6x slower in spells of seconds to minutes (load- and memory-heavy
   code slows, a pure-ALU loop does not), so a median or a mean follows
   the share of the run the host spent slow, while the shortest sample
   needs only one quiet moment. *)
let report_best ?(what = "") name xs =
  report ~note:(Printf.sprintf "shortest%s; %s" what (range xs)) name "s" (List.length xs) (Stats.minimum xs)

(* Job latencies, their median and tail, and a job rate. *)
let report_jobs ~note lat_s ~samples ~per_s =
  let tail, pct = Stats.tail lat_s in
  report ~note "job_p50_s" "s" samples (Stats.median lat_s);
  report ~note:(Printf.sprintf "p%.0f; %s" pct note) "job_tail_s" "s" samples tail;
  report ~note "jobs_per_s" "jobs/s" samples per_s

(* ---------- batch workloads ---------- *)

(* A batch workload repeats one job -- a fixed set of timed legs on the
   paper's circuit -- until the run's time is up.  The first job's
   outputs are checked against the references; every later job must
   reproduce them bitwise. *)
type leg_out = Envelope_out of Env.result | Transient_out of Transient.trajectory

type batch = {
  setup : unit -> Dae.t * Steady.Oscillator.orbit;
  legs : reps:int -> Dae.t -> Steady.Oscillator.orbit -> (string * int * (unit -> leg_out)) list;
      (* name, domains, leg *)
  reps : int;  (* envelope leg pairs per timed job: more samples of the short legs *)
  check : leg_out list -> (float * float) option;  (* omega_err, phase_err_cycles *)
  sim_us : string -> float;  (* simulated microseconds of a leg *)
  h2 : float;  (* slow step, for the kernel replays *)
}

let digest_outs =
  List.fold_left
    (fun h -> function
      | Envelope_out r -> digest_envelope h r
      | Transient_out t -> digest_trajectory h t)
    0xcbf29ce484222325L

(* Set-ups before the first job; one more follows every job, so the
   set-up samples are spread over the run like the legs. *)
let n_setups = 8
let min_jobs = 2

let run_job ~reps b (dae, orbit) =
  let results =
    List.map (fun (name, domains, f) -> (name, attempt ~domains name f)) (b.legs ~reps dae orbit)
  in
  let outs = List.filter_map (fun (_, r) -> Option.map fst r) results in
  let times = List.filter_map (fun (name, r) -> Option.map (fun (_, s) -> (name, s)) r) results in
  (if List.length outs = List.length results then Some outs else None), times

let batch_timed b =
  let setups = ref [] in
  let set_up () =
    let ctx, s = timed b.setup in
    setups := s :: !setups;
    ctx
  in
  let ctx = set_up () in
  for _ = 2 to n_setups do
    ignore (set_up ())
  done;
  let first = ref None and checked = ref None in
  let legs : (string, float list) Hashtbl.t = Hashtbl.create 4 in
  let jobs = ref 0 in
  let t_start = now () and last = ref 0. in
  (* a job starts only if, as long as the last, it ends in the run's time *)
  while (!jobs < min_jobs || now () +. !last < t_start +. !seconds) && now () < deadline do
    let t = now () in
    let outs, times = run_job ~reps:b.reps b ctx in
    last := now () -. t;
    incr jobs;
    List.iter
      (fun (name, s) ->
        Hashtbl.replace legs name (s :: Option.value (Hashtbl.find_opt legs name) ~default:[]))
      times;
    ignore (set_up ());
    match (outs, !first) with
    | None, _ -> ()
    | Some o, None ->
      checked := b.check o;
      first := Some (digest_outs o)
    | Some o, Some f ->
      if digest_outs o <> f then fail "job %d differs from job 1" !jobs
  done;
  report_best "setup_s" !setups;
  let leg name = Option.value (Hashtbl.find_opt legs name) ~default:[] in
  let leg_names = [ "solve_s"; "solve_jobs2_s"; "transient_s" ] in
  List.iter (fun name -> report_best name (leg name)) leg_names;
  (* every job is the same work, so its time is the sum of its legs'
     best times, and p50 and tail coincide *)
  let job_s = Stats.sum (List.map (fun name -> Stats.minimum (leg name)) leg_names) in
  report_jobs ~note:"one job: the sum of the best leg times" [ job_s ] ~samples:!jobs ~per_s:(1. /. job_s);
  (match !checked with
  | Some (w, p) ->
    report "omega_err" "relative" 1 w;
    report "phase_err_cycles" "cycles" 1 p
  | None -> ());
  let per_us name = Stats.minimum (leg name) /. b.sim_us name in
  inform ~note:"transient s per simulated us / WaMPDE s per simulated us" "speedup" "x" 1
    (per_us "transient_s" /. per_us "solve_s");
  inform ~note:"solve_s / solve_jobs2_s" "par_speedup" "x" 1
    (Stats.minimum (leg "solve_s") /. Stats.minimum (leg "solve_jobs2_s"))

let envelope_of = function Envelope_out r -> r | Transient_out _ -> invalid_arg "envelope_of"
let trajectory_of = function Transient_out t -> t | Envelope_out _ -> invalid_arg "trajectory_of"

(* The legs of a batch job: [reps] times the envelope on one domain
   and the same envelope on two, then the transient baseline. *)
let batch_legs ~options ~t2_end ~h2 ~t_tr ~reps dae orbit =
  let env () = Envelope_out (envelope dae ~options ~t2_end ~h2 ~init:orbit) in
  List.concat (List.init reps (fun _ -> [ ("solve_s", 1, env); ("solve_jobs2_s", 2, env) ]))
  @ [ ("transient_s", 1, fun () -> Transient_out (transient dae orbit ~t_end:t_tr)) ]

let check_batch ~label ~limits:(omega_lim, phase_lim) ~tight ~t_tr ~samples outs =
  match List.rev outs with
  | tr :: (_ :: _ :: _ as envs) ->
    let envs = List.rev_map envelope_of envs and tr = trajectory_of tr in
    let e1 = List.hd envs in
    if List.exists (fun e -> digest_envelope 0L e <> digest_envelope 0L e1) envs then
      fail "%s: jobs 1 and jobs 2 envelopes differ" label;
    let w = omega_dev tight (omega_points e1) in
    if not (w < omega_lim) then
      fail "%s: omega deviates %.3e from %s (limit %.1e)" label w tight.name omega_lim;
    let p = phase_error e1 tr ~t_end:t_tr ~samples in
    if not (p < phase_lim) then
      fail "%s: transient phase error %.4f cycles (limit %.3f)" label p phase_lim;
    Some (w, p)
  | _ -> None

let paper_vco_b () =
  let t2_end = if !smoke then 300. else 3000. and t_tr = if !smoke then 30. else 300. and h2 = 5. in
  let tight = load_ref "vco_b_n25_h2.txt" in
  let options = Env.default_options ~n1:25 () in
  {
    setup =
      (fun () ->
        let dae = build (Circuit.Vco.vco_b ()) in
        let orbit = find_orbit (frozen_b ()) ~n1:25 in
        warm_fft ~n1:25;
        (dae, orbit));
    legs = batch_legs ~options ~t2_end ~h2 ~t_tr;
    reps = 3;
    check =
      check_batch ~label:"paper_vco_b" ~limits:(1e-4, 0.01) ~tight ~t_tr
        ~samples:(int_of_float (t_tr *. 200. /. 3.));
    sim_us = (fun leg -> if leg = "transient_s" then t_tr else t2_end);
    h2;
  }

(* ---------- serve sweep ---------- *)

type sjob = {
  id : string;
  line : string;  (* the request handed to the daemon *)
  key : string;  (* parameter tuple: repeats must agree on omega_end *)
  circuit : string;
  t_end : float;
  rtol : float;  (* agreement tolerance for repeated tuples *)
  is_envelope : bool;
}

(* The tolerance the daemon gives an envelope job that names none
   (Serve.Protocol). *)
let default_rtol = 1e-4

(* [rtol = None] leaves the field out, so the daemon's default applies. *)
let envelope_job ~id ~circuit ~n1 ~solver ~t_end ~rtol =
  let rtol_s = Option.fold ~none:"default" ~some:(Printf.sprintf "%g") rtol in
  {
    id;
    key = Printf.sprintf "%s|envelope|n1=%d|%s|t_end=%g|rtol=%s" circuit n1 solver t_end rtol_s;
    circuit;
    t_end;
    rtol = Option.value rtol ~default:default_rtol;
    is_envelope = true;
    line =
      Printf.sprintf
        {|{"type":"job","id":"%s","circuit":"%s","analysis":"envelope","t_end":%g,%s"n1":%d,"solver":"%s"}|}
        id circuit t_end
        (Option.fold ~none:"" ~some:(Printf.sprintf {|"rtol":%g,|}) rtol)
        n1 solver;
  }

let quasi_job ~id ~circuit ~solver =
  {
    id;
    key = Printf.sprintf "%s|quasiperiodic|%s" circuit solver;
    circuit;
    t_end = 0.;
    rtol = 1e-6;
    is_envelope = false;
    line =
      Printf.sprintf
        {|{"type":"job","id":"%s","circuit":"%s","analysis":"quasiperiodic","n1":15,"n2":7,"solver":"%s"}|}
        id circuit solver;
  }

let circuits = [ "vco-a"; "vco-b" ]

(* Slow-time horizons (us) of the short and long envelope jobs of a
   circuit: the horizon scripts/serve_soak.py gives its jobs (6 and
   20 us), and the window over which the paper's figures show it (60 us
   for VCO-A in Figs. 7-9, 300 us for VCO-B in Figs. 10-12 as
   bench/main.ml draws them). *)
let t_ends circuit =
  let scale = if !smoke then 0.2 else 1. in
  let short, long = if circuit = "vco-a" then (6., 60.) else (20., 300.) in
  (scale *. short, scale *. long)

let max_t_end circuit = snd (t_ends circuit)

(* Tolerances of the mix: serve_soak.py's 1e-3, and none, so the job
   gets the daemon's default. *)
let rtols = [ Some 1e-3; None ]

(* The seeded job mix, 36 jobs: every combination of circuit, n1 in
   {15, 25}, solver auto or krylov, the short or the long horizon, and
   rtol 1e-3 or the default, as envelope jobs, and the quasiperiodic job
   (n1 = 15, n2 = 7, as in serve_soak.py) on each circuit with each of
   the daemon's dense and GMRES solvers.  A job's latency depends on the
   jobs that share the daemon with it (a quasiperiodic job is not
   preempted), and shuffles of the mix moved the median latency by a
   fifth, so the jobs follow one fixed cycle -- the short and the long
   horizon of each circuit in turn, and a quasiperiodic job after every
   eight envelope jobs -- and the seed picks where in it the sweep
   starts. *)
let job_mix seed =
  let envelope_class circuit t_end =
    ref
      (List.concat_map
         (fun n1 ->
           List.concat_map
             (fun solver -> List.map (fun rtol -> envelope_job ~circuit ~n1 ~solver ~t_end ~rtol) rtols)
             [ "auto"; "krylov" ])
         [ 15; 25 ])
  in
  let classes =
    List.concat_map
      (fun circuit ->
        let short, long = t_ends circuit in
        [ envelope_class circuit short; envelope_class circuit long ])
      circuits
  in
  let quasi =
    ref
      (List.concat_map (fun circuit -> List.map (fun solver -> quasi_job ~circuit ~solver) [ "dense"; "gmres" ]) circuits)
  in
  let pop l =
    match !l with
    | j :: rest ->
      l := rest;
      [ j ]
    | [] -> []
  in
  let cycle =
    List.concat
      (List.init 8 (fun i -> List.concat_map pop classes @ if i mod 2 = 1 then pop quasi else []))
  in
  let start = Random.State.int (Random.State.make [| seed |]) (List.length cycle) in
  let order = List.filteri (fun i _ -> i >= start) cycle @ List.filteri (fun i _ -> i < start) cycle in
  List.mapi (fun i make -> make ~id:(Printf.sprintf "j%d" (i + 1))) order

(* One warm-up job per orbit-cache key: the daemon's set-up. *)
let warmups tag =
  List.concat_map
    (fun circuit ->
      List.map
        (fun n1 ->
          envelope_job
            ~id:(Printf.sprintf "w%s-%s-%d" tag circuit n1)
            ~circuit ~n1 ~solver:"auto" ~t_end:1. ~rtol:(Some 1e-3))
        [ 15; 25 ])
    circuits

type served = {
  job : sjob;
  latency : float;  (* from hand-over to the result line *)
  wall_s : float;  (* the daemon's own solver time for the job *)
  omega_end : float;
  history : (float * float) list;  (* (t2, omega) after each accepted step *)
  accepted : int;  (* accepted steps in the manifest's history *)
}

type session = { setup_s : float; served : served list; sweep_s : float }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* Job ids are [A-Za-z0-9._-], so the first "id":"..." is unescaped. *)
let id_of line =
  let key = {|"id":"|} in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then None
    else if String.sub line i k = key then
      Option.map (fun j -> String.sub line (i + k) (j - i - k)) (String.index_from_opt line (i + k) '"')
    else find (i + 1)
  in
  find 0

let num_member k j = Option.bind (Obs.Json.member k j) Obs.Json.to_num

let parse_result (job : sjob) ~latency line =
  let ( let* ) = Result.bind in
  let* j = Obs.Json.parse line in
  let* () =
    if Option.bind (Obs.Json.member "type" j) Obs.Json.to_str = Some "result" then Ok ()
    else Error line
  in
  let* manifest = Option.to_result ~none:"result without manifest" (Obs.Json.member "manifest" j) in
  let* () = Obs.Report.check (Obs.Json.to_string manifest) in
  let accepted =
    match Obs.Json.member "history" manifest with
    | Some (Obs.Json.Arr steps) ->
      List.filter (fun s -> Option.bind (Obs.Json.member "outcome" s) Obs.Json.to_str = Some "accept") steps
    | _ -> []
  in
  let history =
    List.filter_map
      (fun s ->
        match (num_member "t" s, num_member "h" s, num_member "omega" s) with
        | Some t, Some h, Some w -> Some (t +. h, w)
        | _ -> None)
      accepted
  in
  match (num_member "wall_s" j, num_member "omega_end" j) with
  | Some wall_s, Some omega_end ->
    Ok { job; latency; wall_s; omega_end; history; accepted = List.length accepted }
  | _ -> Error "result without wall_s/omega_end"

(* One in-process daemon on its own spool: hand it the warm-up jobs
   (set-up ends when the last warm-up result arrives), then keep two
   jobs outstanding until [feed] runs dry, then end its input. *)
let session ~pool ~tag ~feed =
  let spool = Filename.concat out_dir ("spool-" ^ tag) in
  rm_rf spool;
  use_domains pool;
  Gc.full_major ();
  let outstanding : (string, sjob * float * bool) Hashtbl.t = Hashtbl.create 8 in
  let finished = ref [] in
  let warm = ref (warmups tag) in
  let phase = ref `Warm in
  let t0 = now () in
  let setup_end = ref Float.nan and last_done = ref Float.nan in
  let hand ~warmup (j : sjob) =
    incr attempted;
    Hashtbl.replace outstanding j.id (j, now (), warmup);
    `Line j.line
  in
  let rec read ~block =
    if now () > deadline then begin
      if !phase <> `Stop then fail "serve: session %s passed its time limit" tag;
      phase := `Stop;
      `Eof
    end
    else
      match !phase with
      | `Warm -> (
        match !warm with
        | j :: rest ->
          warm := rest;
          hand ~warmup:true j
        | [] when Hashtbl.length outstanding = 0 ->
          setup_end := now ();
          phase := `Sweep;
          read ~block
        | [] -> `Nothing)
      | `Sweep when Hashtbl.length outstanding >= 2 -> `Nothing
      | `Sweep -> (
        match feed () with
        | Some j -> hand ~warmup:false j
        | None ->
          phase := `Stop;
          read ~block)
      | `Stop -> if Hashtbl.length outstanding = 0 then `Eof else `Nothing
  in
  let write line =
    let t = now () in
    if
      starts_with {|{"type":"result"|} line
      || starts_with {|{"type":"job-error"|} line
      || starts_with {|{"type":"error"|} line
    then
      match Option.bind (id_of line) (Hashtbl.find_opt outstanding) with
      | Some (j, due, warmup) ->
        Hashtbl.remove outstanding j.id;
        last_done := t;
        finished := (j, t -. due, warmup, line) :: !finished
      | None -> fail "serve: unmatched response %s" line
  in
  let config = Serve.Server.default_config ~spool () in
  (* Server.run switches telemetry on and leaves it on; what runs after
     the session gets the state it had before *)
  let telemetry = Obs.enabled () in
  let code = Serve.Server.run config ~read ~write ~log:ignore in
  Obs.set_enabled telemetry;
  Par.Pool.set_jobs 1;
  if code <> 0 then fail "serve: daemon exited with %d" code;
  Hashtbl.iter (fun id _ -> fail "serve: job %s got no terminal response" id) outstanding;
  rm_rf spool;
  let served =
    List.filter_map
      (fun (j, latency, warmup, line) ->
        match parse_result j ~latency line with
        | Ok s -> if warmup then None else Some s
        | Error msg ->
          fail "serve: job %s: %s" j.id (if String.length msg > 300 then String.sub msg 0 300 else msg);
          None)
      (List.rev !finished)
  in
  { setup_s = !setup_end -. t0; served; sweep_s = !last_done -. !setup_end }

let of_list jobs =
  let rest = ref jobs in
  fun () ->
    match !rest with
    | j :: tl ->
      rest := tl;
      Some j
    | [] -> None

(* Phase of a served envelope job against the transient baseline of
   its circuit: at the k-th upward zero crossing t_k of the transient,
   the job's integrated frequency since t_0 should be exactly k
   cycles. *)
let served_phase_error ~omega0 ~crossings (s : served) =
  let pts = Array.of_list ((0., omega0) :: List.sort_uniq compare s.history) in
  let n = Array.length pts in
  let cum = Array.make n 0. in
  for i = 1 to n - 1 do
    let ta, wa = pts.(i - 1) and tb, wb = pts.(i) in
    cum.(i) <- cum.(i - 1) +. ((tb -. ta) *. (wa +. wb) /. 2.)
  done;
  let phase t =
    let i = ref 0 in
    while !i < n - 2 && fst pts.(!i + 1) <= t do
      incr i
    done;
    let ta, wa = pts.(!i) and tb, wb = pts.(!i + 1) in
    let w = wa +. ((t -. ta) /. (tb -. ta) *. (wb -. wa)) in
    cum.(!i) +. ((t -. ta) *. (wa +. w) /. 2.)
  in
  let worst = ref 0. in
  if n >= 2 && Array.length crossings > 0 then begin
    let p0 = phase crossings.(0) in
    Array.iteri
      (fun k t ->
        if t <= s.job.t_end then
          worst := Float.max !worst (Float.abs (phase t -. p0 -. float_of_int k)))
      crossings
  end;
  !worst

type baseline = { b_circuit : string; b_dae : Dae.t; b_orbit : Steady.Oscillator.orbit }

let baselines () =
  List.map
    (fun circuit ->
      let frozen, forced =
        if circuit = "vco-a" then (frozen_a (), Circuit.Vco.vco_a ())
        else (frozen_b (), Circuit.Vco.vco_b ())
      in
      { b_circuit = circuit; b_dae = build forced; b_orbit = find_orbit frozen ~n1:25 })
    circuits

(* The transient baselines of the mix: each circuit at 1000 pts/cycle
   over its longest job horizon. *)
let run_baselines ~wrap bs =
  attempt "transient baselines" (fun () ->
      List.map
        (fun b ->
          let traj = transient (wrap b.b_dae) b.b_orbit ~t_end:(max_t_end b.b_circuit) in
          let v = Transient.component traj Circuit.Vco.idx_voltage in
          (b.b_circuit, Sigproc.Zero_crossing.upward ~times:traj.times v))
        bs)

let serve_refs () = [ ("vco-a", load_ref "vco_a_n101_dense_h0.2.txt"); ("vco-b", load_ref "vco_b_n25_h2.txt") ]

(* Repeated tuples agree to their tolerance; every envelope job's
   omega(t2) and phase are compared with the references.  Returns the
   per-job omega deviations and phase errors. *)
let check_served ~crossings served =
  let refs = serve_refs () in
  let first = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt first s.job.key with
      | None -> Hashtbl.add first s.job.key s
      | Some s0 ->
        if not (Float.abs (s.omega_end -. s0.omega_end) <= s.job.rtol *. Float.abs s0.omega_end) then
          fail "serve: %s and %s (%s) disagree: omega_end %.10g vs %.10g" s0.job.id s.job.id s.job.key
            s0.omega_end s.omega_end)
    served;
  List.filter_map
    (fun s ->
      if not s.job.is_envelope then None
      else begin
        (* an empty or partial history would make both comparisons vacuous *)
        let n = List.length s.history in
        if n = 0 || n < s.accepted then
          fail "serve: job %s (%s) has omega on %d of %d accepted steps" s.job.id s.job.key n
            s.accepted;
        let r = List.assoc s.job.circuit refs in
        let w = omega_dev r s.history in
        let p, cycles =
          match List.assoc_opt s.job.circuit crossings with
          | Some c ->
            ( served_phase_error ~omega0:(ref_at r 0.) ~crossings:c s,
              float_of_int (Array.fold_left (fun n t -> if t <= s.job.t_end then n + 1 else n) 0 c) )
          | None -> (Float.nan, 0.)
        in
        (* a relative omega error of rtol drifts the phase by rtol of a
           cycle per cycle; 0.05 cycle is what the comparison resolves *)
        let w_lim = 10. *. s.job.rtol and p_lim = Float.max 0.05 (s.job.rtol *. cycles) in
        if not (w < w_lim) then
          fail "serve: job %s (%s) omega deviates %.3e from %s (limit %.1e)" s.job.id s.job.key w
            r.name w_lim;
        if not (p < p_lim) then
          fail "serve: job %s (%s) phase error %.3f cycles vs transient (limit %.2f)" s.job.id
            s.job.key p p_lim;
        Some (w, p)
      end)
    served

(* Each job's best over the sessions that ran it. *)
let best_per_job sessions f =
  let best = Hashtbl.create 32 in
  List.iter
    (fun ss ->
      List.iter
        (fun s ->
          let v = f s in
          match Hashtbl.find_opt best s.job.id with
          | Some b when b <= v -> ()
          | _ -> Hashtbl.replace best s.job.id v)
        ss.served)
    sessions;
  Hashtbl.fold (fun _ v acc -> v :: acc) best []

(* The two-domain rounds run the envelope jobs that name rtol 1e-3:
   sixteen jobs, the same for every seed. *)
let pool2_jobs mix = List.filter (fun j -> j.is_envelope && j.rtol = 1e-3) mix

(* Rounds: the seed's mix of jobs, each time through a fresh daemon,
   with the pool at one or at two domains, interleaved with the
   transient baselines so that each gets its share of the host's quiet
   and busy spells.  A job's latency and wall time are its best over the
   rounds at one pool size (see report_best), and the job rate is that
   of the fastest round. *)
let serve_sweep_timed () =
  let t0 = now () in
  let bs = baselines () in
  let crossings = ref None and transient_s = ref [] in
  let baseline () =
    match run_baselines ~wrap:Fun.id bs with
    | Some (c, s) ->
      if !crossings = None then crossings := Some c;
      transient_s := s :: !transient_s
    | None -> ()
  in
  let mix = job_mix !seed in
  let jobs2 = pool2_jobs mix in
  let rounds = ref 0 and r1 = ref [] and r2 = ref [] in
  let round pool =
    let acc, jobs = if pool = 1 then (r1, mix) else (r2, jobs2) in
    incr rounds;
    acc := session ~pool ~tag:(Printf.sprintf "r%d" !rounds) ~feed:(of_list jobs) :: !acc
  in
  (* a round at one domain, one at two, a baseline and another round at
     two, over and over (the two-domain rounds are short, and their
     times scatter most); each step starts only if, as long as the last
     of its kind, it ends in the run's time, once there are two rounds
     at each size *)
  let last = [| 0.; 0.; 0. |] in
  let step kind =
    let t = now () in
    if kind = 0 then baseline () else round kind;
    last.(kind) <- now () -. t
  in
  step 0;
  let fits kind =
    (List.length !r1 < 2 || List.length !r2 < 2 || now () +. last.(kind) < t0 +. !seconds)
    && now () < deadline
  in
  let cycle = [| 1; 2; 0; 2 |] and i = ref 0 in
  while fits cycle.(!i mod 4) do
    step cycle.(!i mod 4);
    incr i
  done;
  let all = !r1 @ !r2 in
  report_best "transient_s" !transient_s;
  report_best "setup_s" (List.map (fun ss -> ss.setup_s) all);
  let note = Printf.sprintf "median over jobs of each job's shortest of %d rounds" in
  let walls = best_per_job !r1 (fun s -> s.wall_s) and walls2 = best_per_job !r2 (fun s -> s.wall_s) in
  report ~note:(note (List.length !r1) ^ ", wall_s at 1 domain") "solve_s" "s" (List.length walls)
    (Stats.median walls);
  report ~note:(note (List.length !r2) ^ ", wall_s at 2 domains") "solve_jobs2_s" "s" (List.length walls2)
    (Stats.median walls2);
  let lat = best_per_job !r1 (fun s -> s.latency) in
  report_jobs
    ~note:(Printf.sprintf "each job's shortest of %d rounds at 1 domain; rate of the fastest round" (List.length !r1))
    lat ~samples:(List.length lat)
    ~per_s:(float_of_int (List.length mix) /. Stats.minimum (List.map (fun ss -> ss.sweep_s) !r1));
  match !crossings with
  | None -> ()
  | Some crossings ->
    let checks = check_served ~crossings (List.concat_map (fun ss -> ss.served) all) in
    let n = List.length checks in
    report ~note:"median over envelope jobs" "omega_err" "relative" n (Stats.median (List.map fst checks));
    report ~note:"median over envelope jobs" "phase_err_cycles" "cycles" n
      (Stats.median (List.map snd checks));
    inform ~note:"worst envelope job" "omega_err.max" "relative" n
      (Stats.max_abs (List.map fst checks));
    inform ~note:"worst envelope job" "phase_err_cycles.max" "cycles" n
      (Stats.max_abs (List.map snd checks));
    inform ~note:"solve_s / solve_jobs2_s" "par_speedup" "x" 1 (Stats.median walls /. Stats.median walls2)

(* ---------- traced run ---------- *)

(* Per-layer metrics, their units, which direction is better, and the
   end-to-end metric and workload each is expected to move. *)
let per_layer =
  let s = "s" and c = "count" in
  let tr = "transient_s on paper_vco_b; no change elsewhere" in
  let kry = "solve_s and job_p50_s on serve_sweep (its krylov jobs); not transient_s" in
  let core = "solve_s on paper_vco_b and serve_sweep; job_p50_s on serve_sweep" in
  let srv = "job_tail_s and jobs_per_s on serve_sweep" in
  [
    ("dae.calls", c, "lower", "transient_s on paper_vco_b and serve_sweep");
    ("dae.self_s", s, "lower", "transient_s on paper_vco_b and serve_sweep");
    ("dae.alloc_mw", "Mwords", "lower", "transient_s on paper_vco_b and serve_sweep");
    ("transient.steps", c, "lower", tr);
    ("transient.self_s", s, "lower", tr);
    ("transient.alloc_words_per_step", "words", "lower", tr);
    ("core.envelope_steps", c, "lower", core);
    ("core.step_self_s", s, "lower", core);
    ("core.alloc_words_per_step", "words", "lower", core);
    ("nonlin.newton_iterations", c, "lower", "solve_s");
    ("nonlin.newton_failures", c, "lower", "solve_s");
    ("nonlin.rescues", c, "lower", "solve_s");
    ("linalg.gmres_solves", c, "lower", kry);
    ("linalg.gmres_iterations", c, "lower", kry);
    ("linalg.precond_builds", c, "lower", kry);
    ("linalg.precond_block_factors", c, "lower", kry);
    ("linalg.precond_fallbacks", c, "lower", kry);
    ("linalg.lu_factors", c, "lower", "solve_s on paper_vco_b; not transient_s");
    ("linalg.gmres_s", s, "lower", kry);
    ("linalg.matvec_us", "us", "lower", kry);
    ("linalg.precond_build_us", "us", "lower", kry);
    ("linalg.precond_apply_us", "us", "lower", kry);
    ("linalg.lu_factor_us", "us", "lower", "solve_s on paper_vco_b");
    ("fourier.fft_us", "us", "lower", "solve_s on paper_vco_b and serve_sweep");
    ("steady.orbit_s", s, "lower", "setup_s on all; job_p50_s on serve_sweep");
    ("steady.orbit_cache_hit_ratio", "ratio", "higher", "setup_s on all; job_p50_s on serve_sweep");
    ("par.busy_s", s, "lower", "solve_jobs2_s on serve_sweep");
    ("par.idle_s", s, "lower", "solve_jobs2_s on serve_sweep");
    ("par.efficiency", "ratio", "higher", "solve_jobs2_s on serve_sweep");
    ("serve.queue_wait_s", s, "lower", srv);
    ("serve.solver_s", s, "lower", srv);
    ("serve.quanta", c, "lower", srv);
    ("serve.preemptions", c, "lower", srv);
    ("serve.checkpoint_saves", c, "lower", srv);
    ("serve.checkpoint_bytes", "bytes", "lower", srv);
    ("serve.journal_appends", c, "lower", srv);
    ("serve.precond_cache_hit_ratio", "ratio", "higher", srv);
    ("serve.precond_cache_evictions", c, "lower", srv);
    ("obs.trace_overhead_s", s, "lower", "none: the cost of tracing itself");
    ("gc.minor_collections", c, "lower", "every timed metric of the workload");
    ("gc.major_collections", c, "lower", "every timed metric of the workload");
  ]

(* What one repetition of a workload produced: leg times (for
   par.efficiency) and, for the serve sweep, the served jobs. *)
type rep_out = { r_legs : (string * float) list; r_served : served list }

let ratio hits misses = if hits +. misses > 0. then hits /. (hits +. misses) else 0.

let json_string s = Obs.Json.to_string (Obs.Json.Str s)

(* Runs set-up and one repetition untraced, then set-up and the same
   repetition again with the program's telemetry, spans with GC deltas
   and the DAE wrapper on; computes the per-layer metrics from the
   second, and writes the Perfetto trace and a per-layer JSON. *)
let traced_run ~name ~setup ~rep ~replay =
  let ctx = setup () in
  let untraced, wall_u = timed (fun () -> rep ctx ~wrap:Fun.id) in
  Obs.Metrics.reset ();
  Obs.set_enabled true;
  Obs.Span.set_gc_stats true;
  Obs.Span.start_recording ();
  let ctx_t = Obs.Span.span "bench.setup" setup in
  Obs.Metrics.reset ();
  let acc = Layers.new_acc () in
  let gc0 = Gc.quick_stat () in
  let traced, wall_t =
    timed (fun () -> Obs.Span.span "bench.rep" (fun () -> rep ctx_t ~wrap:(Layers.wrap acc)))
  in
  let gc1 = Gc.quick_stat () in
  let spans = Obs.Span.stop_recording () in
  let instants = Obs.Span.recorded_instants () in
  let counters = Obs.Metrics.counters () and gauges = Obs.Metrics.gauges () in
  Obs.Span.set_gc_stats false;
  Obs.set_enabled false;
  let kernels = replay ctx in
  let counter k = float_of_int (Option.value (List.assoc_opt k counters) ~default:0) in
  let gauge k = Option.value (List.assoc_opt k gauges) ~default:0. in
  let rep_spans = Layers.below ~root:"bench.rep" spans in
  let step = Layers.total "envelope.step" rep_spans in
  let tr = Layers.total "transient.integrate" rep_spans in
  let per n x = if n > 0. then x /. n else 0. in
  let leg l = Option.value (List.assoc_opt l untraced.r_legs) ~default:Float.nan in
  let served = traced.r_served in
  let values =
    [
      ("dae.calls", float_of_int acc.calls);
      ("dae.self_s", acc.self_s);
      ("dae.alloc_mw", acc.words /. 1e6);
      ("transient.steps", counter "transient.steps");
      ("transient.self_s", tr.seconds -. Layers.scope_s acc "transient");
      ("transient.alloc_words_per_step", per (counter "transient.steps") tr.words);
      ("core.envelope_steps", float_of_int step.count);
      ( "core.step_self_s",
        step.seconds
        -. Layers.nested_seconds ~outer:"envelope.step" ~inner:"gmres.solve" rep_spans
        -. Layers.scope_s acc "envelope.newton" );
      ("core.alloc_words_per_step", per (float_of_int step.count) step.words);
      ("nonlin.newton_iterations", counter "newton.iterations");
      ("nonlin.newton_failures", counter "newton.failures");
      ("nonlin.rescues", counter "envelope.rescues" +. counter "transient.rescues");
      ("linalg.gmres_solves", counter "gmres.solves");
      ("linalg.gmres_iterations", counter "gmres.iterations");
      ("linalg.precond_builds", counter "gmres.precond.builds");
      ("linalg.precond_block_factors", counter "gmres.precond.block_factors");
      ("linalg.precond_fallbacks", counter "gmres.precond.fallbacks");
      ("linalg.lu_factors", counter "lu.factor");
      ("linalg.gmres_s", (Layers.total "gmres.solve" rep_spans).seconds);
    ]
    @ List.map (fun (k : Layers.kernel) -> (k.k_name, k.us)) kernels
    @ [
        ("steady.orbit_s", (Layers.total "oscillator.find" spans).seconds);
        ( "steady.orbit_cache_hit_ratio",
          ratio (counter "cache.orbit.hits") (counter "cache.orbit.misses") );
        ("par.busy_s", gauge "pool.busy_s");
        ("par.idle_s", gauge "pool.idle_s");
        ("par.efficiency", leg "solve_s" /. (2. *. leg "solve_jobs2_s"));
        ( "serve.queue_wait_s",
          if served = [] then 0. else Stats.median (List.map (fun s -> s.latency -. s.wall_s) served) );
        ("serve.solver_s", if served = [] then 0. else Stats.median (List.map (fun s -> s.wall_s) served));
        ("serve.quanta", counter "serve.quanta");
        ("serve.preemptions", counter "serve.preemptions");
        ("serve.checkpoint_saves", counter "checkpoint.saves");
        ("serve.checkpoint_bytes", gauge "checkpoint.bytes");
        ("serve.journal_appends", counter "serve.journal.appends");
        ( "serve.precond_cache_hit_ratio",
          ratio (counter "cache.precond.hits") (counter "cache.precond.misses") );
        ("serve.precond_cache_evictions", counter "cache.precond.evictions");
        ("obs.trace_overhead_s", wall_t -. wall_u);
        ("gc.minor_collections", float_of_int (gc1.minor_collections - gc0.minor_collections));
        ("gc.major_collections", float_of_int (gc1.major_collections - gc0.major_collections));
      ]
  in
  List.iter
    (fun (m, u, _, _) ->
      match List.assoc_opt m values with
      | Some v -> report m u 1 v
      | None -> fail "per-layer metric %s not computed" m)
    per_layer;
  inform ~note:"hits / (hits + misses)"
    "serve.precond_cache_base" "lookups" 1
    (counter "cache.precond.hits" +. counter "cache.precond.misses");
  inform "dae.envelope_newton_s" "s" 1 (Layers.scope_s acc "envelope.newton");
  inform "dae.transient_s" "s" 1 (Layers.scope_s acc "transient");
  List.iter
    (fun (k : Layers.kernel) ->
      inform ~note:(k.shape ^ ", computed") (k.k_name ^ ".gflops") "Gflop/s" 1 (k.flops /. k.us /. 1e3);
      inform ~note:(k.shape ^ ", computed") (k.k_name ^ ".gbytes") "GB/s" 1 (k.bytes /. k.us /. 1e3))
    kernels;
  mkdir_p out_dir;
  let trace_json =
    Obs.Trace_event.to_string ~process_name:("perfbench " ^ name) ~spans ~instants ()
  in
  let trace_path = Filename.concat out_dir (name ^ "-trace.json") in
  Out_channel.with_open_bin trace_path (fun oc -> output_string oc trace_json);
  (* per-layer JSON: metric values with their expected effect, kernel
     shapes with computed flops and bytes, and span self times *)
  let names = List.sort_uniq compare (List.map (fun (r : Obs.Span.record) -> r.name) spans) in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf "{\"workload\":%s,\"seed\":%d,\"per_layer\":{" (json_string name) !seed;
  List.iteri
    (fun i (m, u, better, moves) ->
      Printf.bprintf buf "%s%s:{\"value\":%.17g,\"unit\":%s,\"better\":%s,\"moves\":%s}"
        (if i > 0 then "," else "")
        (json_string m)
        (Option.value (List.assoc_opt m values) ~default:0.)
        (json_string u) (json_string better) (json_string moves))
    per_layer;
  Buffer.add_string buf "},\"kernels\":[";
  List.iteri
    (fun i (k : Layers.kernel) ->
      Printf.bprintf buf
        "%s{\"name\":%s,\"shape\":%s,\"us_per_call\":%.6g,\"flops_computed\":%.6g,\"bytes_computed\":%.6g}"
        (if i > 0 then "," else "")
        (json_string k.k_name) (json_string k.shape) k.us k.flops k.bytes)
    kernels;
  Buffer.add_string buf "],\"spans\":[";
  let self = Layers.self_seconds spans in
  List.iteri
    (fun i nm ->
      let t = Layers.total nm spans in
      Printf.bprintf buf "%s{\"name\":%s,\"count\":%d,\"total_s\":%.6g,\"self_s\":%.6g,\"alloc_words\":%.6g}"
        (if i > 0 then "," else "")
        (json_string nm) t.count t.seconds
        (Option.value (List.assoc_opt nm self) ~default:0.)
        t.words)
    names;
  Printf.bprintf buf "],\"trace\":%s}\n" (json_string trace_path);
  let layers_path = Filename.concat out_dir (name ^ "-layers.json") in
  Out_channel.with_open_bin layers_path (fun oc -> Buffer.output_buffer oc buf);
  Printf.printf "wrote %s and %s\n" trace_path layers_path

let batch_traced name b =
  let setup () =
    let ctx = b.setup () in
    (ctx, fun wrap -> run_job ~reps:1 b (wrap (fst ctx), snd ctx))
  in
  traced_run ~name ~setup
    ~rep:(fun (_, job) ~wrap ->
      let outs, legs = job wrap in
      (match outs with None -> fail "%s: traced job failed" name | Some _ -> ());
      { r_legs = legs; r_served = [] })
    ~replay:(fun ((dae, orbit), _) ->
      Layers.replay ~dae ~orbit ~h2:b.h2)

let serve_traced () =
  let mix = job_mix !seed in
  let mix, mix2 =
    if !smoke then
      let few = List.filteri (fun i _ -> i < 4) (pool2_jobs mix) in
      (few, few)
    else (mix, pool2_jobs mix)
  in
  traced_run ~name:"serve_sweep" ~setup:baselines
    ~rep:(fun bs ~wrap ->
      ignore (run_baselines ~wrap bs);
      let s1 = session ~pool:1 ~tag:"t1" ~feed:(of_list mix) in
      let s2 = session ~pool:2 ~tag:"t2" ~feed:(of_list mix2) in
      let wall ss = Stats.median (List.map (fun s -> s.wall_s) ss.served) in
      { r_legs = [ ("solve_s", wall s1); ("solve_jobs2_s", wall s2) ]; r_served = s1.served @ s2.served })
    ~replay:(fun bs ->
      let b = List.hd bs in
      Layers.replay ~dae:b.b_dae ~orbit:b.b_orbit ~h2:0.4)

(* ---------- main ---------- *)

let end_to_end =
  [
    "setup_s";
    "solve_s";
    "solve_jobs2_s";
    "transient_s";
    "job_p50_s";
    "job_tail_s";
    "jobs_per_s";
    "omega_err";
    "phase_err_cycles";
    "peak_heap_mb";
  ]

let workloads = [ "paper_vco_b"; "serve_sweep" ]

let print_table rows =
  Printf.printf "%-34s %16s  %-9s %7s  %s\n" "metric" "value" "unit" "samples" "note";
  List.iter
    (fun (name, v) -> Printf.printf "%-34s %16.6g  %-9s %7d  %s\n" name v.v v.unit_ v.n v.note)
    rows

let () =
  let usage = "wbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke] | --make-refs" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed of the serve sweep's job mix");
      ("--seconds", Arg.Set_float seconds, "S measuring time of one run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--smoke", Arg.Set smoke, " reduced problem sizes");
      ("--make-refs", Arg.Set make_refs, " rewrite the stored omega references");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !make_refs then write_refs ()
  else begin
    if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline usage;
      exit 2
    end;
    Obs.set_enabled false;
    (match (!workload, !trace) with
    | "paper_vco_b", 0 -> batch_timed (paper_vco_b ())
    | "serve_sweep", 0 -> serve_sweep_timed ()
    | "paper_vco_b", _ -> batch_traced "paper_vco_b" (paper_vco_b ())
    | _ -> serve_traced ());
    Par.Pool.shutdown ();
    let expected = if !trace = 0 then end_to_end else List.map (fun (m, _, _, _) -> m) per_layer in
    if !trace = 0 then report "peak_heap_mb" "MB" 1 (peak_heap_mb ());
    let rows = List.rev !reported in
    print_table (rows @ List.rev !info);
    Printf.printf "%-34s %16.6g  %-9s %7d  %s\n" "error_rate" 
      (float_of_int !failed /. float_of_int (max 1 !attempted)) "fraction" !attempted "failed / attempted";
    let missing =
      List.filter
        (fun m ->
          match List.assoc_opt m rows with Some v -> not (Float.is_finite v.v) | None -> true)
        expected
    in
    if missing <> [] then begin
      Printf.printf "no value for %s\n" (String.concat ", " missing);
      exit 1
    end;
    let metrics =
      List.map
        (fun m ->
          let v = List.assoc m rows in
          Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (json_string m) v.v (json_string v.unit_))
        expected
    in
    Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" (!failed = 0)
      (max 1 !attempted) !failed (String.concat "," metrics)
  end
