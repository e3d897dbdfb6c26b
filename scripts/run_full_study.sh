#!/usr/bin/env bash
# Full paper-scale study: 15 problems x 6 operators x 2 mutations x 30 runs
# at population 300 / 1000 generations, plus the convergence and sweep
# experiments. Estimated wall time: about 20 minutes on 2 workers, nearly all
# of it experiment1 (one run of each of its 180 cells takes 36-41 s).
set -euo pipefail
cd "$(dirname "$0")/.."

rcga run configs/experiment1.cfg
rcga analyze results/experiment1 --control PSOX
rcga plot results/experiment1

rcga run configs/experiment2.cfg
rcga plot results/experiment2 --problems 4,5,7,11

rcga sweep configs/experiment3.cfg
