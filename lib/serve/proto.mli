(** The [eprocd] session protocol: request/response shapes, validation,
    and the structured error envelope.

    Every request body and response is JSON ({!Ewalk_obs.Json}); errors
    are always [{"error":{"code":...,"message":...}}] with a 4xx/5xx
    status, so a client needs exactly one decoder.  Validation is strict
    and happens before any state is touched: a malformed body, an unknown
    process, an oversized graph or a negative step count can never crash
    the daemon — they are answered and forgotten. *)

type mode = Ewalk_kernel.Engine.mode = Cooperating | Competing

type config = {
  family : string;  (** graph family spec, e.g. ["regular:4"] *)
  n : int;  (** vertex count *)
  process : string;  (** process spec, e.g. ["e-process:lowest"] *)
  seed : int;  (** PRNG seed: the graph and the walk derive from it *)
  walkers : int;  (** lockstep walker count (1 = legacy loop) *)
  mode : mode;
}

val mode_name : mode -> string

type error = { status : int; code : string; message : string }

val err : int -> string -> string -> error
val error_body : error -> string
(** The JSON error envelope, newline-terminated. *)

val internal : string -> error
(** A 500 wrapping an unexpected exception message. *)

val snapshottable : walkers:int -> mode:mode -> string -> bool
(** Whether the process spec can be served: it must round-trip through
    {!Ewalk_resume.Snapshot} (hibernation depends on it), so it must be
    one of {!Ewalk_resume.Walk.specs} for this walker count and mode. *)

val max_walkers : int
val max_steps_per_request : int

val config_to_json : config -> Ewalk_obs.Json.t

val config_of_json : max_n:int -> Ewalk_obs.Json.t -> (config, error) result
(** Decode and validate a create-session body.  Defaults: [process]
    ["e-process"], [seed] 1, [walkers] 1, [mode] cooperating.  [family]
    and [n] are required. *)

val parse_body : string -> (Ewalk_obs.Json.t, error) result
(** Parse a request body as JSON (400 [bad_json] on failure; an empty
    body parses as an empty object). *)

type step_request =
  | Steps of int  (** advance exactly this many steps *)
  | To_cover of int option  (** run to the cover milestone, optional cap *)

val step_request_of_json : Ewalk_obs.Json.t -> (step_request, error) result
(** [{"steps":K}] or [{"until":"cover","cap":K?}].  A zero, negative or
    absurdly large step count is a 400. *)

val steps_query : (string * string) list -> (int, error) result
(** The [?steps=K] parameter of the trace endpoint, same bounds as
    {!step_request_of_json}. *)
