#!/usr/bin/env bash
# Checks the four top-level docs (README, ARCHITECTURE, DESIGN,
# EXPERIMENTS) for drift against the repo:
#
#   1. every relative markdown link [text](path) resolves to a file,
#   2. every intra-document anchor [text](#heading) matches a heading,
#   3. every backticked repo path (crates/..., tests/..., *.rs, ...)
#      exists on disk,
#   4. every `--bin <name>` in a command example is a real binary,
#   5. every long `--flag` mentioned in the docs appears in the rust
#      sources (so renamed/removed CLI flags can't linger in prose),
#   6. the analyzer diagnostic codes defined in
#      crates/analyze/src/diag.rs and the ones README.md and
#      ARCHITECTURE.md document are the same set: a new ANxyz code must
#      land with its table row, and a retired one must leave the docs,
#   7. the README "Report schemas" section states the same
#      `schema_version` as telemetry's SCHEMA_VERSION and names every
#      report `Kind` (so the schema table cannot drift from the code).
#
# Usage: scripts/check_docs.sh [extra-docs...]
# Exits non-zero listing every stale reference found.
set -uo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C

DOCS=(README.md ARCHITECTURE.md DESIGN.md EXPERIMENTS.md "$@")
fail=0
err() { echo "check_docs: $1: $2" >&2; fail=1; }

# GitHub-style anchor for a markdown heading: lowercase, drop anything
# that is not alphanumeric/space/hyphen/underscore, spaces -> hyphens.
anchors_of() {
    grep -E '^#{1,6} ' "$1" 2>/dev/null \
        | sed -E 's/^#+[[:space:]]+//; s/`//g' \
        | tr '[:upper:]' '[:lower:]' \
        | sed -E 's/[^a-z0-9 _-]//g; s/[[:space:]]+/-/g'
}

# Flags that belong to cargo/CI command lines quoted in the docs, not
# to our binaries.
TOOLCHAIN_FLAGS='--release --bin --example --workspace --all-targets --all
                 --check --no-deps --doc --features --quiet --locked --offline'

for doc in "${DOCS[@]}"; do
    if [ ! -f "$doc" ]; then
        err "$doc" "document not found"
        continue
    fi
    anchors=$(anchors_of "$doc")

    # --- 1 + 2: markdown links ------------------------------------
    while IFS= read -r target; do
        [ -n "$target" ] || continue
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        '#'*)
            want=${target#\#}
            if ! printf '%s\n' "$anchors" | grep -qx "$want"; then
                err "$doc" "dead anchor '$target' (no matching heading)"
            fi
            ;;
        *)
            path=${target%%#*}
            frag=""
            [ "$path" != "$target" ] && frag=${target#*#}
            if [ ! -e "$path" ]; then
                err "$doc" "broken link '$target' ($path does not exist)"
            elif [ -n "$frag" ] && [[ $path == *.md ]]; then
                if ! anchors_of "$path" | grep -qx "$frag"; then
                    err "$doc" "dead anchor '$target' in $path"
                fi
            fi
            ;;
        esac
    done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

    # --- 3: backticked repo paths ---------------------------------
    while IFS= read -r tok; do
        [ -n "$tok" ] || continue
        tok=${tok%%::*} # `tests/foo.rs::test_name` -> the file part
        case "$tok" in
        *'*'* | *' '* | *'|'*) continue ;; # globs / prose / alternations
        esac
        looks_like_path=0
        case "$tok" in
        crates/* | src/* | tests/* | examples/* | scripts/* | \
            baselines/* | .github/*) looks_like_path=1 ;;
        results/*) continue ;; # generated at run time, not committed
        *.rs | *.md | *.sh | *.toml | *.raul)
            [[ $tok == */* ]] && looks_like_path=1 ;;
        esac
        [ "$looks_like_path" = 1 ] || continue
        if [ ! -e "$tok" ] && [ ! -e "${tok%/}" ]; then
            err "$doc" "backticked path '$tok' does not exist"
        fi
    done < <(grep -oE '`[^`]+`' "$doc" | sed -E 's/^`//; s/`$//' | sort -u)

    # --- 4: --bin targets in command examples ---------------------
    while IFS= read -r bin; do
        [ -n "$bin" ] || continue
        if [ ! -f "crates/bench/src/bin/$bin.rs" ] &&
            [ ! -f "src/bin/$bin.rs" ]; then
            err "$doc" "'--bin $bin' names no binary in crates/bench/src/bin or src/bin"
        fi
    done < <(grep -oE -- '--bin [a-z_0-9]+' "$doc" | awk '{print $2}' | sort -u)

    # --- 5: long flags must exist in the sources ------------------
    while IFS= read -r flag; do
        [ -n "$flag" ] || continue
        case " $TOOLCHAIN_FLAGS " in
        *" $flag "*) continue ;;
        esac
        if ! grep -rqF --include='*.rs' -e "\"$flag\"" src crates; then
            err "$doc" "flag '$flag' not found in any rust source"
        fi
    done < <(grep -oP -- '--[a-z][a-z0-9-]+(?![a-z0-9:/-])' "$doc" | sort -u)
done

# --- 6: analyzer diagnostic codes match the docs, both ways ----------
# The single source of truth is the `id()` table in diag.rs; every code
# string it returns must appear somewhere in README or ARCHITECTURE, and
# every code those two documents name must be one it returns.
defined=$(grep -oE '"AN[0-9]{3}"' crates/analyze/src/diag.rs | tr -d '"' | sort -u)
while IFS= read -r code; do
    [ -n "$code" ] || continue
    if ! grep -q "$code" README.md ARCHITECTURE.md; then
        err "crates/analyze/src/diag.rs" \
            "diagnostic code $code is not documented in README.md or ARCHITECTURE.md"
    fi
done <<<"$defined"
while IFS=: read -r doc code; do
    [ -n "$code" ] || continue
    if ! grep -qx "$code" <<<"$defined"; then
        err "$doc" "documents diagnostic code $code, which crates/analyze/src/diag.rs does not define"
    fi
done < <(grep -oE 'AN[0-9]{3}' README.md ARCHITECTURE.md | sort -u)

# --- 7: the README schema table matches the report envelope ----------
REPORT_RS=crates/telemetry/src/report.rs
version=$(grep -oE 'pub const SCHEMA_VERSION: i64 = [0-9]+' "$REPORT_RS" | grep -oE '[0-9]+$')
schemas=$(awk '/^### Report schemas/ {on = 1; next} on && /^#/ {exit} on' README.md)
if [ -z "$version" ] || [ -z "$schemas" ]; then
    err README.md "cannot read SCHEMA_VERSION or the \"Report schemas\" section"
else
    if ! grep -qF "schema_version: $version\`" <<<"$schemas"; then
        err README.md "\"Report schemas\" does not state \`schema_version: $version\` ($REPORT_RS)"
    fi
    while IFS= read -r kind; do
        [ -n "$kind" ] || continue
        if ! grep -qF "\`$kind\`" <<<"$schemas"; then
            err README.md "\"Report schemas\" does not name kind \`$kind\` ($REPORT_RS)"
        fi
    done < <(grep -oE 'Kind::[A-Za-z]+ => "[a-z_]+"' "$REPORT_RS" | grep -oE '"[a-z_]+"' | tr -d '"')
fi

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK (${#DOCS[@]} documents clean)"
