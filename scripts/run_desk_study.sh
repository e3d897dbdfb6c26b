#!/usr/bin/env bash
# Reduced-scale rehearsal of the full study (~1.5 minutes on 2 cores: 87 s on a
# 2-core x86 host with Python 3.11.7).
set -euo pipefail
cd "$(dirname "$0")/.."

rcga run configs/experiment1.cfg --scale desk --output-dir results/experiment1_desk
rcga analyze results/experiment1_desk --control PSOX
rcga plot results/experiment1_desk --problems 4,5,7,11

rcga run configs/experiment2.cfg --scale desk --output-dir results/experiment2_desk
rcga plot results/experiment2_desk

rcga sweep configs/experiment3.cfg --output-dir results/experiment3_desk
