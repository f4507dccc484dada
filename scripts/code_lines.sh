#!/usr/bin/env bash
# Code-line measure quoted by CHANGES.md and the simplicity issues:
# non-blank, non-`//` lines before a file's first `#[cfg(test)]`.
#
#   scripts/code_lines.sh <file-or-dir>...
#
# Prints one `<lines> <path>` row per argument (directories are summed
# over their `*.rs` files, recursively) and a `total` row.
set -euo pipefail

count() {
    awk '/^#\[cfg\(test\)\]/{exit} {print}' "$1" | grep -vc '^[[:space:]]*\(//.*\)\?$' || true
}

total=0
for path in "$@"; do
    sum=0
    while IFS= read -r file; do
        sum=$((sum + $(count "$file")))
    done < <(find "$path" -type f -name '*.rs' | sort)
    printf '%6d %s\n' "$sum" "$path"
    total=$((total + sum))
done
printf '%6d total\n' "$total"
