(* Closed-loop traffic against an in-process eprocd: one client, hot
   sessions that stay resident, cold sessions that cycle through the
   resident cap.  Session creation order (cold first) leaves every cold
   session but the last hibernated and every hot one resident, so from
   the first round on each cold request rehydrates exactly one snapshot
   and hibernates exactly one (the previous cold session). *)

module Rng = Ewalk_prng.Rng
module Json = Ewalk_obs.Json
module Metrics = Ewalk_obs.Metrics
module Daemon = Ewalk_serve.Daemon
module Client = Ewalk_serve.Client
module Registry = Ewalk_serve.Registry
module Session = Ewalk_serve.Session
module Proto = Ewalk_serve.Proto

type shape = {
  hot : int;
  cold : int;
  cap : int;  (** resident cap: [hot + 1] keeps hot sessions resident *)
  n : int;
  rounds : int;
  steps : int;  (** steps per request *)
}

(* The serve-mixed workload, and the smaller mix the traced runs of the
   other workloads use to reach the serving layers. *)
let mixed =
  { hot = 4; cold = 4; cap = 5; n = 2_000; rounds = 250; steps = 1_000 }

let probe = { mixed with hot = 2; cold = 2; cap = 3; rounds = 40 }

let session_config ~seed shape i : Proto.config =
  {
    family = "regular:4";
    n = shape.n;
    process = "e-process";
    seed = seed + (7919 * (i + 1));
    walkers = 1;
    mode = Proto.Cooperating;
  }

(* Sessions [0, cold) are cold, [cold, cold + hot) hot. *)
let is_hot shape i = i >= shape.cold

(* Requests session [i] receives in one pass. *)
let requests shape i =
  if is_hot shape i then shape.rounds
  else (shape.rounds - i + shape.cold - 1) / shape.cold

type t = { shape : shape; seed : int; daemon : Daemon.t; ids : string array }

let port t = Daemon.port t.daemon

let create_session ~port cfg =
  let body = Json.to_string (Proto.config_to_json cfg) in
  match Client.request ~port ~meth:"POST" ~path:"/sessions" ~body () with
  | Ok { Client.status = 201; body } -> (
      match Result.map (Json.member "id") (Json.of_string body) with
      | Ok (Some (Json.String id)) -> id
      | _ -> failwith ("serve: create response carries no id: " ^ body))
  | Ok r -> failwith (Printf.sprintf "serve: create -> %d" r.Client.status)
  | Error e -> failwith ("serve: create: " ^ e)

(* Daemon start plus every session create: the workload's set-up. *)
let start shape ~seed ~dir =
  match Daemon.start ~state_dir:dir ~resident_cap:shape.cap () with
  | Error e -> failwith ("serve: daemon start: " ^ e)
  | Ok daemon ->
      let port = Daemon.port daemon in
      let ids =
        Array.init (shape.cold + shape.hot) (fun i ->
            create_session ~port (session_config ~seed shape i))
      in
      { shape; seed; daemon; ids }

let stop t = ignore (Daemon.stop t.daemon : int)

type pass = {
  wall_s : float;
  round_s : float array;  (** per round: its hot requests, then its cold one *)
  hot_ms : float array;
  cold_ms : float array;
  failed : int;  (** responses other than 200 *)
  hibernations : int;  (** during the pass *)
  rehydrations : int;
}

let attempted p = Array.length p.hot_ms + Array.length p.cold_ms

(* One pass of [rounds] rounds.  [span] wraps every request (the traced
   run passes [Meter.with_span "http"]). *)
let run ?(span = fun f -> f ()) t =
  let s = t.shape and port = port t in
  let metrics = Registry.metrics (Daemon.registry t.daemon) in
  let counter name = Metrics.value (Metrics.counter metrics name) in
  let h0 = counter "hibernations" and r0 = counter "rehydrations" in
  let body = Printf.sprintf {|{"steps":%d}|} s.steps in
  let failed = ref 0 in
  let step i =
    let r, dt =
      span (fun () ->
          Meter.timed (fun () ->
              Client.request ~port ~meth:"POST"
                ~path:("/sessions/" ^ t.ids.(i) ^ "/step")
                ~body ()))
    in
    (match r with Ok { Client.status = 200; _ } -> () | _ -> incr failed);
    dt *. 1e3
  in
  let hot_ms = Array.make (s.rounds * s.hot) 0.0 in
  let cold_ms = Array.make s.rounds 0.0 in
  let round_s = Array.make s.rounds 0.0 in
  let (), wall_s =
    Meter.timed (fun () ->
        for r = 0 to s.rounds - 1 do
          let (), dt =
            Meter.timed (fun () ->
                for h = 0 to s.hot - 1 do
                  hot_ms.((r * s.hot) + h) <- step (s.cold + h)
                done;
                cold_ms.(r) <- step (r mod s.cold))
          in
          round_s.(r) <- dt
        done)
  in
  {
    wall_s;
    round_s;
    hot_ms;
    cold_ms;
    failed = !failed;
    hibernations = counter "hibernations" - h0;
    rehydrations = counter "rehydrations" - r0;
  }

(* Every session's state equals that of a twin built from the same
   config and stepped the same number of times without ever hibernating.
   [passes]: how many passes the daemon has served. *)
let twins_match t ~passes ~dir =
  let reg = Daemon.registry t.daemon in
  Array.to_list t.ids
  |> List.mapi (fun i id ->
         let cfg = session_config ~seed:t.seed t.shape i in
         let rng = Rng.create ~seed:cfg.Proto.seed () in
         let graph = Ewalk_expt.Families.build cfg.family rng ~n:cfg.n in
         let tdir = Filename.concat dir ("twin-" ^ id) in
         Meter.mkdir_p tdir;
         match Session.create ~id ~dir:tdir ~graph ~rng cfg with
         | Error _ -> false
         | Ok twin ->
             for _ = 1 to passes * requests t.shape i do
               ignore (Session.step twin t.shape.steps)
             done;
             let live = Option.map Session.summarize (Registry.find reg id) in
             live = Some (Session.summarize twin))
  |> List.for_all Fun.id

(* Median round trip of [GET /healthz] in ms. *)
let healthz_ms t ~reps =
  let port = port t in
  Array.init reps (fun _ ->
      snd
        (Meter.timed (fun () ->
             Client.request ~port ~meth:"GET" ~path:"/healthz" ()))
      *. 1e3)
  |> Meter.median
