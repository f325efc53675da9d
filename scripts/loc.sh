#!/usr/bin/env bash
# ROADMAP's two tracked size metrics, per crate, in one table:
#
#   scripts/loc.sh [<root>]
#
# * non-test lines: every line of each `src/**/*.rs` down to its first
#   `#[cfg(test)]` attribute (the whole file when it has no test module);
# * `pub` items: `pub fn|struct|enum|trait|const|type` declarations among
#   those lines (fields, re-exports and `pub(crate)` items do not count).
#
# A final `total` row sums both columns over the crates.
#
# <root> defaults to the repository this script lives in; pass an exported
# parent tree to read the before side of a PR.
set -euo pipefail

root=${1:-$(cd "$(dirname "$0")/.." && pwd)}
cd "$root"

printf '%-18s %10s %10s\n' crate non-test pub
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$manifest" | head -n 1)
    find "$dir/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } on; /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }' |
        awk -v name="$name" '
            /^[[:space:]]*pub (fn|struct|enum|trait|const|type) / { items++ }
            END { printf "%-18s %10d %10d\n", name, NR, items }'
done | awk '{ print; lines += $2; items += $3 }
            END { printf "%-18s %10d %10d\n", "total", lines, items }'
