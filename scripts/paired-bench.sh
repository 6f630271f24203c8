#!/usr/bin/env bash
# Paired benchmark of a parent revision against the working tree.
#
#   scripts/paired-bench.sh <parent-rev> <workload> [pairs] [metric] [seed]
#   scripts/paired-bench.sh <parent-rev> all [pairs] [metric] [seed]
#
# The measurement protocol of ROADMAP.md, end to end:
#   - checks out <parent-rev> (`git archive`) and the working tree
#     (tracked and untracked, not ignored, files) into sibling
#     directories `par` and `chg`, whose paths have equal length;
#   - builds the benchmark package in each, with its own
#     CARGO_TARGET_DIR (`par.target`, `chg.target`);
#   - runs `--workload <workload> --seconds 10 --trace 0 --seed [seed]`
#     (default seed 1, the benchmark's own) in [pairs] (default 10)
#     alternating pairs: odd pairs run the parent first, even pairs the
#     change. A claim must also hold on a seed not used while the change
#     was written;
#   - prints every run, each side's median [Q1, Q3] flow_events_per_s
#     (quartiles as the benchmark's `stats::quartiles` computes them),
#     the ratio of the medians and the pairs the change won;
#   - prints each side's median setup_s and peak_heap_mb, the ratio of
#     the medians and whether it stays within the metric's bound in
#     BENCHMARK.json, or `unresolved` when the parent's (Q3 - Q1) / median
#     exceeds that bound and not every change run beats every parent run;
#   - says whether p50_ct_s, tail_ct_s and tardiness_s printed identical
#     digits on both sides of every pair;
#   - ends with the protocol's verdict on [metric], the claimed
#     end-to-end metric (default flow_events_per_s; any `end_to_end`
#     name in BENCHMARK.json): each side's median [Q1, Q3], the ratio,
#     the pairs the change won (by the metric's `better` direction in
#     BENCHMARK.json), the medians' distance against the parent's
#     Q3 - Q1, and the verdict: when the parent's (Q3 - Q1) / median
#     exceeds the metric's bound in BENCHMARK.json, `gain (every change
#     run beats every parent run)` if it does, else `unresolved`; when it
#     does not, `gain` when the change won at least 9 in 10 pairs, else
#     `no gain`.
#
# `all` in place of a workload runs that protocol on every workload of
# BENCHMARK.json in turn, then ends with one table: per workload and
# end-to-end metric, the parent and change medians, their ratio, the
# pairs the change won and tied (by the metric's `better` direction),
# and whether the change is `within` the metric's BENCHMARK.json bound,
# `BEYOND` it (worse than the bound allows), or `unresolved` (the
# parent's (Q3 - Q1) / median exceeds the bound and not every change
# run beats every parent run). A PR is judged on every row.
#
# Exits 1 if the two sides' instance completion digests differ in any
# pair or a run reports `"correct": false`, and 2 on a usage error.
# PAIRED_BENCH_DIR names the scratch directory (default: `mktemp -d`);
# its checkouts and run logs are replaced on every call, and its target
# directories reused.
#
# PAIRED_BENCH_ALIGN=1 builds both sides with every function aligned to
# 64 bytes (RUSTFLAGS="-C llvm-args=-align-all-functions=6"), in target
# directories of their own (`par.aligned.target`, `chg.aligned.target`),
# and says so in the summary. The protocol asks for this re-run when a
# workload that runs none of the changed code moves: it takes code
# layout shifts out of the comparison.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <workload|all> [pairs] [metric] [seed]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
claimed=${4:-flow_events_per_s}
seed=${5:-1}
repo=$(git rev-parse --show-toplevel)
dir=${PAIRED_BENCH_DIR:-$(mktemp -d)}
manifest=crates/bench/src/bin/benchmark/Cargo.toml

# A field of an end-to-end metric's entry in BENCHMARK.json.
field() {
    sed -n "s/.*\"name\": *\"$1\".*\"$2\": *\"\{0,1\}\([a-z0-9.]*\).*/\1/p" \
        "$repo/BENCHMARK.json"
}
bound() { field "$1" bound; }
better=$(field "$claimed" better)
if [[ $better != higher && $better != lower || -z $(bound "$claimed") ]]; then
    echo "$0: $claimed is not an end-to-end metric of BENCHMARK.json" >&2
    exit 2
fi

mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -rf "$dir/par" "$dir/chg" "$dir"/par.*.log "$dir"/chg.*.log "$dir"/runs*.txt
mkdir "$dir/par" "$dir/chg"
# `tar -m` stamps the files now: git archive stamps them with the commit
# time, which may predate the reused target's last build, and cargo would
# then keep a build of whatever revision that target last compiled.
git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$rev^{commit}")" |
    tar -x -m -C "$dir/par"
(
    cd "$repo"
    git ls-files -co --exclude-standard -z |
        while IFS= read -r -d '' f; do
            # A tracked file deleted in the working tree is not copied.
            if [[ -e $f ]]; then
                [[ $f == */* ]] && mkdir -p "$dir/chg/${f%/*}"
                cp -p "$f" "$dir/chg/$f"
            fi
        done
)

align=${PAIRED_BENCH_ALIGN:-0}
target=target
rustflags=${RUSTFLAGS:-}
if [[ $align == 1 ]]; then
    target=aligned.target
    rustflags="$rustflags -C llvm-args=-align-all-functions=6"
fi
for side in par chg; do
    echo "building $side" >&2
    (cd "$dir/$side" &&
        RUSTFLAGS="$rustflags" CARGO_TARGET_DIR="$dir/$side.$target" \
            cargo build --release --quiet --manifest-path "$manifest")
done

# One run of `side` on $workload: appends "<side> <pair> <correct>
# <digests>" and then the value of each metric in $metrics, as the
# benchmark printed it, to $runs.
metrics="flow_events_per_s setup_s peak_heap_mb p50_ct_s tail_ct_s tardiness_s"
# The claimed metric's field in a runs file.
claimed_field=$(echo "$metrics" | tr ' ' '\n' | grep -nx "$claimed" | cut -d: -f1)
claimed_field=$((claimed_field + 4))
run() {
    local side=$1 pair=$2 log="$dir/$1.$workload.$2.log"
    (cd "$dir/$side" &&
        "$dir/$side.$target/release/benchmark" --workload "$workload" \
            --seconds 10 --trace 0 --seed "$seed" >"$log" 2>&1)
    awk -v side="$side" -v pair="$pair" -v metrics="$metrics" '
        BEGIN { n = split(metrics, name, " ") }
        match($0, /"instance_digests":\[[^]]*\]/) {
            digests = substr($0, RSTART + 19, RLENGTH - 19)
        }
        {
            for (i = 1; i <= n; i++) {
                # "<name>":{"value":<number>
                if (match($0, "\"" name[i] "\":[{]\"value\":[^,}]*")) {
                    skip = length(name[i]) + 12
                    value[i] = substr($0, RSTART + skip, RLENGTH - skip)
                }
            }
        }
        /"correct":false/ { correct = "false" }
        END {
            line = side " " pair " " (correct == "" ? "true" : correct) " " digests
            for (i = 1; i <= n; i++) {
                if (value[i] == "" || digests == "") {
                    print "no metrics in " FILENAME > "/dev/stderr"
                    exit 1
                }
                line = line " " value[i]
            }
            print line
        }' "$log" >>"$runs"
}

# The protocol on workload $1, its runs recorded in $2: the pairs, then
# the summary, which exits 1 when digests differ or a run is not correct.
bench() {
    workload=$1
    runs=$2
    : >"$runs"
    for ((p = 1; p <= pairs; p++)); do
        if ((p % 2 == 1)); then
            run par "$p"
            run chg "$p"
        else
            run chg "$p"
            run par "$p"
        fi
        awk -v p="$p" -v f="$claimed_field" -v m="$claimed" '$2 == p {
            printf "pair %2d %s %.0f ev/s", p, $1, $5
            if (f != 5) printf ", %s %.6g", m, $f
            printf "\n"
        }' "$runs" >&2
    done

    awk -v workload="$workload" -v rev="$rev" -v align="$align" -v seed="$seed" \
        -v setup_bound="$(bound setup_s)" -v heap_bound="$(bound peak_heap_mb)" \
        -v metric="$claimed" -v cf="$claimed_field" -v better="$better" \
        -v metric_bound="$(bound "$claimed")" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) {
                t = a[i]
                for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
                a[j + 1] = t
            }
        }
        function median(a, n) {
            return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
        }
        # Python statistics.quantiles(n=4), the exclusive method.
        function quartile(a, n, i,    m, j, d) {
            if (n == 1) return a[1]
            m = n + 1
            j = int(i * m / 4)
            if (j < 1) j = 1
            if (j > n - 1) j = n - 1
            d = i * m - 4 * j
            return (a[j] * (4 - d) + a[j + 1] * d) / 4
        }
        function summary(name, a, n) {
            sort(a, n)
            printf "%-7s median %.0f [%.0f, %.0f] ev/s over %d runs\n",
                name, median(a, n), quartile(a, n, 1), quartile(a, n, 3), n
        }
        # (Q3 - Q1) / median of the sorted runs a.
        function spread(a, n) {
            return (quartile(a, n, 3) - quartile(a, n, 1)) / median(a, n)
        }
        # True when every sorted change run b beats every sorted parent run a
        # in direction dir (higher or lower).
        function dominates(a, b, n, dir) {
            return dir == "higher" ? b[1] > a[n] : b[n] < a[1]
        }
        # Field f (a lower-is-better metric) on both sides: the medians, their
        # ratio, and whether the change stays within the bound; unresolved
        # when the parent spread exceeds the bound and not every change run
        # beats every parent run.
        function lower_better(label, f, bnd,    p, a, b, r, s, verdict) {
            for (p = 1; p <= pairs; p++) {
                a[p] = v["par", p, f]
                b[p] = v["chg", p, f]
            }
            sort(a, pairs)
            sort(b, pairs)
            r = median(b, pairs) / median(a, pairs)
            s = spread(a, pairs)
            if (s > bnd && !dominates(a, b, pairs, "lower"))
                verdict = sprintf("unresolved (parent (Q3 - Q1) / median %.3f > bound)", s)
            else
                verdict = r <= 1 + bnd ? "within" : "BEYOND"
            printf "%-12s median %.6g -> %.6g, ratio %.3fx, bound %s: %s\n",
                label, median(a, pairs), median(b, pairs), r, bnd, verdict
        }
        {
            for (f = 5; f <= NF; f++) v[$1, $2, f] = $f
            d[$1, $2] = $4
            if ($3 != "true") bad = 1
            if ($2 > pairs) pairs = $2
        }
        END {
            for (p = 1; p <= pairs; p++) {
                par[p] = v["par", p, 5]
                chg[p] = v["chg", p, 5]
                if (chg[p] > par[p]) won++
                if (d["par", p] != d["chg", p]) {
                    printf "pair %d: digests differ\n  par %s\n  chg %s\n",
                        p, d["par", p], d["chg", p]
                    bad = 1
                }
                # p50_ct_s, tail_ct_s and tardiness_s, digit for digit.
                for (f = 8; f <= 10; f++)
                    if (v["par", p, f] != v["chg", p, f]) {
                        moved = moved " " p
                        break
                    }
            }
            printf "%s, %d pairs at seed %s, parent %s against the working tree%s\n",
                workload, pairs, seed, rev,
                (align == 1 ? ", every function aligned to 64 bytes" : "")
            summary("parent", par, pairs)
            summary("change", chg, pairs)
            printf "ratio   %.3fx (change median / parent median); change won %d of %d pairs\n",
                median(chg, pairs) / median(par, pairs), won, pairs
            lower_better("setup_s", 6, setup_bound)
            lower_better("peak_heap_mb", 7, heap_bound)
            if (moved == "")
                print "p50_ct_s, tail_ct_s, tardiness_s: identical digits in every pair"
            else
                print "p50_ct_s, tail_ct_s, tardiness_s: digits differ in pairs" moved
            # The claimed metric: pairs won by its direction, then its spread.
            cwon = 0
            for (p = 1; p <= pairs; p++) {
                a[p] = v["par", p, cf]
                b[p] = v["chg", p, cf]
                if (better == "higher" ? b[p] > a[p] : b[p] < a[p]) cwon++
            }
            sort(a, pairs)
            sort(b, pairs)
            iqr = quartile(a, pairs, 3) - quartile(a, pairs, 1)
            gap = median(b, pairs) - median(a, pairs)
            printf "%s (%s is better): parent median %.6g [%.6g, %.6g], change median %.6g [%.6g, %.6g]\n",
                metric, better, median(a, pairs), quartile(a, pairs, 1), quartile(a, pairs, 3),
                median(b, pairs), quartile(b, pairs, 1), quartile(b, pairs, 3)
            printf "%s ratio %.3fx; change won %d of %d pairs; medians %.6g apart, parent Q3 - Q1 %.6g\n",
                metric, median(b, pairs) / median(a, pairs), cwon, pairs,
                (gap < 0 ? -gap : gap), iqr
            s = spread(a, pairs)
            if (s > metric_bound && dominates(a, b, pairs, better))
                verdict = "gain (every change run beats every parent run)"
            else if (s > metric_bound)
                verdict = sprintf("unresolved (parent (Q3 - Q1) / median %.3f > bound %s)",
                    s, metric_bound)
            else if (10 * cwon >= 9 * pairs)
                verdict = sprintf("gain (won %d of %d pairs)", cwon, pairs)
            else
                verdict = sprintf("no gain (won %d of %d pairs)", cwon, pairs)
            if (bad) {
                print "FAILED: digests differ or a run was not correct"
                exit 1
            }
            print "digests identical on both sides"
            print metric " verdict: " verdict
        }' "$runs"
}

if [[ $workload != all ]]; then
    bench "$workload" "$dir/runs.txt"
    exit
fi

workloads=$(sed -n 's/.*{"name": *"\([a-z-]*\)", *"why".*/\1/p' "$repo/BENCHMARK.json")
status=0
for w in $workloads; do
    bench "$w" "$dir/runs.$w.txt" || status=1
    echo
done

# One row per workload and end-to-end metric.
table=()
for m in $metrics; do
    table+=("$m $(field "$m" better) $(bound "$m")")
done
for w in $workloads; do
    echo "$w $dir/runs.$w.txt"
done | awk -v pairs="$pairs" -v spec="$(printf '%s\n' "${table[@]}")" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    function median(a, n) {
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    # Python statistics.quantiles(n=4), the exclusive method.
    function quartile(a, n, i,    m, j, d) {
        if (n == 1) return a[1]
        m = n + 1
        j = int(i * m / 4)
        if (j < 1) j = 1
        if (j > n - 1) j = n - 1
        d = i * m - 4 * j
        return (a[j] * (4 - d) + a[j + 1] * d) / 4
    }
    BEGIN {
        nm = split(spec, rows, "\n")
        printf "%-17s %-18s %12s %12s %8s %7s %5s  %s\n",
            "workload", "metric", "parent", "change", "ratio", "won", "tied", "against bound"
    }
    {
        w = $1
        delete v
        n = 0
        while ((getline line < $2) > 0) {
            k = split(line, f, " ")
            for (i = 5; i <= k; i++) v[f[1], f[2], i] = f[i]
            if (f[2] > n) n = f[2]
        }
        close($2)
        for (i = 1; i <= nm; i++) {
            split(rows[i], parts, " ")
            name = parts[1]; better = parts[2]; bnd = parts[3]; col = i + 4
            won = 0; tied = 0
            for (p = 1; p <= n; p++) {
                a[p] = v["par", p, col] + 0
                b[p] = v["chg", p, col] + 0
                if (a[p] == b[p]) tied++
                else if (better == "higher" ? b[p] > a[p] : b[p] < a[p]) won++
            }
            sort(a, n)
            sort(b, n)
            ma = median(a, n); mb = median(b, n)
            r = ma == 0 ? (mb == 0 ? 1 : 1e300) : mb / ma
            s = ma == 0 ? 0 : (quartile(a, n, 3) - quartile(a, n, 1)) / ma
            dom = better == "higher" ? b[1] > a[n] : b[n] < a[1]
            worse = better == "higher" ? r < 1 - bnd : r > 1 + bnd
            if (s > bnd && !dom) verdict = sprintf("unresolved (parent spread %.3f > %s)", s, bnd)
            else if (worse) { verdict = "BEYOND " bnd; beyond++ }
            else verdict = "within " bnd
            printf "%-17s %-18s %12.6g %12.6g %7.3fx %3d/%-3d %5d  %s\n",
                w, name, ma, mb, r, won, n, tied, verdict
        }
    }
    END {
        if (beyond) printf "%d metric(s) BEYOND their bound\n", beyond
        else print "no metric beyond its bound"
    }'
exit $status
