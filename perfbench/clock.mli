(** The clocks the benchmark times calls on, and the reading of the host's
    speed that turns their seconds into reference seconds.

    The host is a few vCPUs of a shared machine. Its speed moves by up to
    2.5x between minutes (NOTES.md, Noise): neighbours take the physical
    core's shared resources, and the hypervisor gives the vCPU to another
    guest (steal). Calls are therefore timed on CPU clocks, which leave
    steal out, and a run reads the host's speed at regular points around
    its calls and scales each call's time by it. *)

type t =
  | Wall  (** Monotonic wall time. *)
  | Thread_cpu
      (** The calling thread's CPU time, user and system. It leaves out
          time the thread waited for a CPU: taken by another process, or,
          on a guest with paravirtual steal accounting (Linux
          [CONFIG_PARAVIRT_TIME_ACCOUNTING]), by another guest. For work on
          the calling domain. *)
  | Process_cpu
      (** The same summed over the process's threads, for work on several
          domains. Linux reads it at tick granularity while a process-wide
          CPU timer such as {!sampled}'s is armed, so it is not for use
          inside {!sampled}. *)

val now : t -> float
(** Seconds since an arbitrary origin, on the given clock. *)

val timed : t -> (unit -> 'a) -> 'a * float
(** [timed c f] is [f ()] and the seconds it took on [c]. *)

val reading : t -> float
(** Seconds, on the given clock, of one run of a fixed kernel: Gaussian
    elimination on small float matrices, a shell sort and an
    open-addressing hash table, the kind of work the library does, written
    without the library so that a change to it does not move the reading.
    The kernel allocates nothing, so no GC work lands inside a reading, and
    an untimed run first brings it back into the caches, so the reading
    does not depend on what the workload left there. About 0.2 ms. *)

val reference : float
(** {!reading} inside the workloads on the reference machine (2-vCPU
    Xeon) in a quiet minute. *)

val speed : float list -> float
(** [speed readings] is [reference /. median readings]: the host's speed
    over the stretch the readings were taken in, relative to the reference.
    A time times [speed] is in reference seconds.
    @raise Invalid_argument on the empty list. *)

val sampled : (unit -> 'a) -> 'a * float * float option
(** [sampled f] runs [f] on the calling domain with a sampler on: every
    20 ms of the process's CPU time an [ITIMER_PROF] alarm takes a
    {!reading} from its [SIGPROF] handler. Returns [f]'s value, its seconds
    on the {!Thread_cpu} clock without the samples' own, and the mean of
    the samples' speeds, which weighs each stretch of [f] by its length
    ([None] when [f] ran too briefly for a sample). For work that runs for
    seconds between two points where a reading could be taken. *)
