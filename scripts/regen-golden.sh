#!/usr/bin/env bash
# Regenerates the golden report corpus under tests/golden/ from the
# current build. Run it only for an intended counter drift, and commit
# the new files with a CHANGES.md entry naming each changed field.
#
# Usage: scripts/regen-golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true
TPS_REGEN_GOLDEN=1 cargo test -q --test golden
git status --short tests/golden
