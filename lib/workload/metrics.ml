module Sample_set = Tq_stats.Sample_set

type t = {
  workload : Service_dist.t;
  warmup_ns : int;
  sojourn : Sample_set.t array;
  slowdown : Sample_set.t array;
  (* Retry-aware accounting (tq_fault).  [sojourn] above is per-attempt
     as the server sees it; [eventual] is per-request, measured from the
     original arrival to the first useful completion. *)
  eventual : Sample_set.t array;
  mutable attempts : int;
  mutable retries : int;
  mutable drops_timeout : int;  (** abandoned after the attempt limit *)
  mutable retries_exhausted : int;
      (** of the timeout drops, those denied a retry by the shared
          retry budget rather than their own attempt limit *)
  mutable drops_nic : int;  (** lost on the NIC path (fault injection) *)
  mutable rejections : int;  (** shed by the admission controller *)
  mutable duplicates : int;  (** completions after the request was done/abandoned *)
}

let create ~workload ~warmup_ns =
  let n = Service_dist.class_count workload in
  {
    workload;
    warmup_ns;
    sojourn = Array.init n (fun _ -> Sample_set.create ());
    slowdown = Array.init n (fun _ -> Sample_set.create ());
    eventual = Array.init n (fun _ -> Sample_set.create ());
    attempts = 0;
    retries = 0;
    drops_timeout = 0;
    retries_exhausted = 0;
    drops_nic = 0;
    rejections = 0;
    duplicates = 0;
  }

let record t ~class_idx ~arrival_ns ~finish_ns ~service_ns =
  if finish_ns < arrival_ns then invalid_arg "Metrics.record: finish before arrival";
  if arrival_ns >= t.warmup_ns then begin
    let sojourn = float_of_int (finish_ns - arrival_ns) in
    Sample_set.add t.sojourn.(class_idx) sojourn;
    Sample_set.add t.slowdown.(class_idx) (sojourn /. float_of_int (Int.max 1 service_ns))
  end

let record_eventual t ~class_idx ~arrival_ns ~finish_ns =
  if finish_ns < arrival_ns then
    invalid_arg "Metrics.record_eventual: finish before arrival";
  if arrival_ns >= t.warmup_ns then
    Sample_set.add t.eventual.(class_idx) (float_of_int (finish_ns - arrival_ns))

let record_attempt t = t.attempts <- t.attempts + 1
let record_retry t = t.retries <- t.retries + 1
let record_timeout_drop t = t.drops_timeout <- t.drops_timeout + 1

let record_retries_exhausted t =
  t.retries_exhausted <- t.retries_exhausted + 1
let record_nic_drop t = t.drops_nic <- t.drops_nic + 1
let record_rejection t = t.rejections <- t.rejections + 1
let record_duplicate t = t.duplicates <- t.duplicates + 1
let attempts t = t.attempts
let retries t = t.retries
let timeout_drops t = t.drops_timeout
let retries_exhausted t = t.retries_exhausted
let nic_drops t = t.drops_nic
let rejections t = t.rejections
let duplicates t = t.duplicates

let completed t ~class_idx = Sample_set.count t.sojourn.(class_idx)

let total_completed t =
  Array.fold_left (fun acc s -> acc + Sample_set.count s) 0 t.sojourn

let sojourn_percentile t ~class_idx p = Sample_set.percentile t.sojourn.(class_idx) p
let slowdown_percentile t ~class_idx p = Sample_set.percentile t.slowdown.(class_idx) p

let overall_sojourn_percentile t p = Sample_set.union_percentile t.sojourn p
let overall_slowdown_percentile t p = Sample_set.union_percentile t.slowdown p
let mean_sojourn t ~class_idx = Sample_set.mean t.sojourn.(class_idx)
let class_count t = Service_dist.class_count t.workload
let class_name t i = Service_dist.class_name t.workload i

let eventual_completed t =
  Array.fold_left (fun acc s -> acc + Sample_set.count s) 0 t.eventual

let eventual_percentile t ~class_idx p = Sample_set.percentile t.eventual.(class_idx) p
let overall_eventual_percentile t p = Sample_set.union_percentile t.eventual p

(* Post-warm-up requests that completed within [deadline_ns] of their
   original arrival: the numerator of goodput. *)
let goodput_within t ~deadline_ns =
  let deadline = float_of_int deadline_ns in
  Array.fold_left
    (Sample_set.fold (fun acc v -> if v <= deadline then acc + 1 else acc))
    0 t.eventual
