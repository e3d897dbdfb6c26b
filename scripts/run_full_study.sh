#!/usr/bin/env bash
# Full paper-scale study: 15 problems x 6 operators x 2 mutations x 30 runs
# at population 300 / 1000 generations, plus the convergence and sweep
# experiments. Estimated wall time: about an hour on 2 workers, nearly all of
# it experiment1 (5400 runs at 0.8-1.6 s each).
set -euo pipefail
cd "$(dirname "$0")/.."

rcga run configs/experiment1.cfg
rcga analyze results/experiment1 --control PSOX
rcga plot results/experiment1

rcga run configs/experiment2.cfg
rcga plot results/experiment2 --problems 4,5,7,11

rcga sweep configs/experiment3.cfg
