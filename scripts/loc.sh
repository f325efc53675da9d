#!/usr/bin/env bash
# ROADMAP's two tracked size metrics, per crate, in one table:
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh <rev>    # <rev> → the working tree, side by side
#
# * non-test lines: every line of each `src/**/*.rs` down to its first
#   `#[cfg(test)]` attribute (the whole file when it has no test module);
# * `pub` items: `pub fn|struct|enum|trait|const|type` declarations among
#   those lines (fields, re-exports and `pub(crate)` items do not count).
#
# A final `total` row sums both columns over the crates.
#
# Given a git revision (commit, branch or tag, e.g. `HEAD~1` for the
# parent of the last commit), the script exports it with `git archive`
# into a temporary directory and prints each crate as `<rev> → working
# tree`; a crate that exists on one side only reads 0 on the other.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)

# `<crate> <non-test lines> <pub items>` per crate of the tree at $1,
# then the `total` row.
measure() (
    cd "$1"
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        [ -d "$dir/src" ] || continue
        name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$manifest" | head -n 1)
        find "$dir/src" -name '*.rs' -print0 | sort -z |
            xargs -0 awk 'FNR == 1 { on = 1 } on; /^[[:space:]]*#\[cfg\(test\)\]/ { on = 0 }' |
            awk -v name="$name" '
                /^[[:space:]]*pub (fn|struct|enum|trait|const|type) / { items++ }
                END { printf "%s %d %d\n", name, NR, items }'
    done | awk '{ print; lines += $2; items += $3 }
                END { printf "total %d %d\n", lines, items }'
)

if [ $# -eq 0 ]; then
    printf '%-18s %10s %10s\n' crate non-test pub
    measure "$repo" | awk '{ printf "%-18s %10d %10d\n", $1, $2, $3 }'
    exit 0
fi

tree=$(mktemp -d)
trap 'rm -rf "$tree"' EXIT
git -C "$repo" archive "$1" | tar -x -C "$tree"
before=$(measure "$tree")
after=$(measure "$repo")

printf '%s → working tree\n' "$1"
printf '%-18s %-23s %s\n' crate non-test pub
awk '
    FNR == 1 { side++ }
    {
        if (!($1 in seen)) { seen[$1] = 1; order[++n] = $1 }
        lines[side, $1] = $2; items[side, $1] = $3
    }
    END {
        for (k = 1; k <= n; k++) {
            c = order[k]
            if (c == "total") continue
            row(c)
        }
        row("total")
    }
    function row(c) {
        printf "%-18s %10d → %-10d %7d → %-7d\n", c,
            lines[1, c], lines[2, c], items[1, c], items[2, c]
    }' <(printf '%s\n' "$before") <(printf '%s\n' "$after")
