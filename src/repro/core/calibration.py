"""Every constant anchored to a number in the paper, in one place.

Anchors (paper):

* Fig. 1  — single V100: EDSR ~10.3 img/s (batch 4), ResNet-50 ~360 img/s;
* §IV-C   — EDSR with 32 residual blocks, upscale x2, residual scaling 0.1,
  batch 4, DIV2K;
* Table I — allreduce bins: ~0% gain below 16 MB, ~53%/50% gain at
  16-32/32-64 MB, 45.4% total;
* §VII    — +5.1% average throughput from the registration cache, 93%
  cache hit rate, +26% throughput and +15.6 points of scaling efficiency
  from MPI-Opt at 512 GPUs; default drops below 60% efficiency, MPI-Opt
  stays above 70%.
"""

from __future__ import annotations

from repro.horovod.env import HorovodConfig, TUNED_FOR_EDSR

#: paper Fig. 1 anchors (images/second on one V100)
EDSR_SINGLE_GPU_IMG_PER_SEC = 10.3
RESNET50_SINGLE_GPU_IMG_PER_SEC = 360.0

#: paper training configuration (§IV-C / §V)
TRAIN_BATCH_PER_GPU = 4
TRAIN_LR_PATCH = 48
TRAIN_UPSCALE = 2

#: Horovod tuning used for the paper-scale workload (§II-D: tuned per scale)
HOROVOD_TUNED: HorovodConfig = TUNED_FOR_EDSR

#: per-rank compute jitter (std-dev fraction); drives the straggler tax
COMPUTE_JITTER_SIGMA = 0.05

#: pageable staging copies are synchronous w.r.t. the GPU stream: while a
#: rank drives its D2H/H2D halves it also waits on the paired process's
#: half and on DRAM/copy-engine contention, so the compute stall is larger
#: than the rank's own copy time.  1.6x maps the busiest rank's copy time
#: to the full staged-phase stall.
PAGEABLE_BLOCKING_FACTOR = 1.6

#: optimizer update reads params+grads+2 Adam moments and writes params+moments
OPTIMIZER_BYTES_PER_PARAM = 6 * 4

#: paper targets used by benches to check reproduction *shape*
TARGETS = {
    "fig1_edsr_img_s": 10.3,
    "fig1_resnet_img_s": 360.0,
    "table1_total_improvement_pct": 45.4,
    "table1_16_32_improvement_pct": 53.1,
    "table1_32_64_improvement_pct": 49.7,
    "fig11_regcache_gain_pct": 5.1,
    "fig11_regcache_hit_rate": 0.93,
    "fig12_throughput_gain_pct": 26.0,
    "fig13_default_efficiency_512": 0.60,   # default drops below this
    "fig13_opt_efficiency_512": 0.70,       # MPI-Opt stays above this
    "fig13_efficiency_gain_points": 15.6,
}
