(** Fault-schedule sweep: the explorer pointed at the Byzantine protocols.

    Eight configurations pair a protocol instance (EIG, Floodset,
    Phase-King, Dolev–Strong) with a seeded schedule generator, bracketing
    each resilience threshold from both sides: below threshold the
    explorer must find no violation, at/above it the violation must be
    found and shrunk to a minimal replayable counterexample. Rendered by
    E4/E5/E15 and by [bin/main.exe --explore]; verdicts are deterministic
    in (seed, trials). *)

type config = {
  cname : string;
  regime : string;
  expect_violation : bool;
  quick : bool;  (** part of the [--quick] (CI smoke) subset *)
  gen : Beyond_nash.Prng.t -> Beyond_nash.Faults.schedule;
      (** the config's seeded schedule generator *)
  explore : pool:Beyond_nash.Pool.t -> seed:int -> trials:int -> Beyond_nash.Explore.report;
}

val all : config list
val configs : quick:bool -> config list

(** {1 Systems under test} (exported for the fault/exploration suites) *)

val eig_system :
  n:int -> t:int -> values:int array ->
  int Beyond_nash.Sync_net.result Beyond_nash.Explore.system

val floodset_system :
  n:int -> f:int -> values:int array ->
  int Beyond_nash.Sync_net.result Beyond_nash.Explore.system

val phase_king_system :
  n:int -> t:int -> values:int array ->
  int Beyond_nash.Sync_net.result Beyond_nash.Explore.system

val dolev_strong_system :
  n:int -> t:int -> int Beyond_nash.Sync_net.result Beyond_nash.Explore.system

val explore_eig_n3t1 :
  ?pool:Beyond_nash.Pool.t -> seed:int -> trials:int -> unit -> Beyond_nash.Explore.report
(** The n = 3t EIG exploration (find + shrink) as a single timed kernel —
    the bench harness entry point. *)

(** {1 Rendering} *)

val render : ?jobs:int -> ?quick:bool -> trials:int -> seed:int -> unit -> unit
(** One verdict row per config, then a replayable transcript per violating
    config, through {!Bn_util.Out}. *)

val demo : seed:int -> unit -> unit
(** [--faults] demo: one concrete schedule injected into EIG, next to the
    fault-free run. *)
