(** Service-time distributions and workload specifications.

    A workload is a mixture of job classes; each class has a name, a
    mixing ratio and a service-time sampler.  This mirrors Table 1 of the
    paper, where every evaluated workload is either a discrete mixture
    (bimodal, TPC-C, RocksDB) or a continuous distribution (Exp(1)). *)

(** Per-class service-time sampler; all times in nanoseconds. *)
type sampler =
  | Fixed of int  (** deterministic service time *)
  | Exponential of float  (** exponential with the given mean *)
  | Uniform of int * int  (** uniform over inclusive bounds *)
  | Lognormal of { median_ns : float; sigma : float }
      (** heavy-tailed; exp(N(ln median, sigma^2)) *)
  | Empirical of int array
      (** trace-driven: sample uniformly from recorded service times —
          how one feeds TQ a measured production distribution *)

type job_class = { class_name : string; ratio : float; sampler : sampler }

type t = { name : string; classes : job_class array }

(** [make ~name classes] validates ratios (positive, summing to ~1). *)
val make : name:string -> job_class list -> t

(** [sample_class t rng] draws a class index, weighted by the ratios. *)
val sample_class : t -> Tq_util.Prng.t -> int

(** [sample_service_ns t ~class_idx rng] draws a service time (>= 1 ns)
    from class [class_idx].  An arrival draws its class, then its
    service time, from the same generator: two calls and no pair. *)
val sample_service_ns : t -> class_idx:int -> Tq_util.Prng.t -> int

(** [sampler_mean_ns s] is the exact mean of one sampler. *)
val sampler_mean_ns : sampler -> float

(** [mean_service_ns t] is the mixture mean. *)
val mean_service_ns : t -> float

(** [class_count t] is the number of classes. *)
val class_count : t -> int

(** [class_name t i] looks up a class name. *)
val class_name : t -> int -> string

(** [dispersion_ratio t] is max mean / min mean over classes (the paper
    calls this the runtime ratio between long and short jobs). *)
val dispersion_ratio : t -> float
