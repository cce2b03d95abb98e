#!/usr/bin/env bash
# Smoke job: tier-1 tests + a CLI round trip that must leave a result artifact.
#
# The tier-1 command is `python -m pytest -x -q` (see ROADMAP.md).  The one
# known reproduction gap (test_figure9's parameter-reduction bound, see
# README.md) is a documented non-strict xfail, so the full suite runs green
# with no deselects.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
RESULTS_DIR="$(mktemp -d)"
export REPRO_RESULTS_DIR="$RESULTS_DIR"
trap 'rm -rf "$RESULTS_DIR"' EXIT

echo "== static analysis: repro lint (invariant rules + reviewed baseline) =="
# The AST-based analyzer replaces the old grep guard.  It enforces, against
# src/repro/ with scripts/lint_baseline.txt as the reviewed allowlist:
#   env-confinement   REPRO_* env reads only in src/repro/runtime/ (including
#                     aliased imports and computed keys grep could not see)
#   mutable-global    no module-level mutable state outside runtime/
#   nondeterminism    no ambient RNG / wall-clock / set-iteration entropy
#   runtime-threading runtime= is forwarded to runtime-accepting callees
#   exception-hygiene no bare except: / silently swallowed broad handlers
# Any unbaselined finding — or stale baseline entry — fails the job.
python -m repro.cli lint
echo "OK: static invariants hold (zero unbaselined findings)"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== benchmark selftest: perfbench workloads against golden.json =="
# Runs every BENCHMARK.json workload in tiny mode, untraced and traced,
# checks each op's result against perfbench/golden.json, and checks that a
# traced run restores every function it hooked (the store's publish and
# load among them).  A src change that breaks the benchmark fails here.
python3 perfbench/selftest.py

echo "== smoke fingerprints: every experiment against scripts/smoke_fingerprints.txt =="
# Each registered experiment runs once at --smoke from cold caches, and its
# record fingerprint must equal the one pinned in
# scripts/smoke_fingerprints.txt (one `<experiment> <fingerprint>` line
# each).  A change that moves a fingerprint on purpose re-pins it there, so
# the re-pin is a diff of that one file.  The runs get their own results
# dir: the concurrency leg below reads exactly one figure5 record from
# $RESULTS_DIR/runs.
FINGERPRINT_DIR="$RESULTS_DIR/fingerprints"
PINNED_NAMES="$(cut -d' ' -f1 scripts/smoke_fingerprints.txt | LC_ALL=C sort)"
REGISTERED_NAMES="$(python -c 'from repro.experiments.runner import experiment_names
print(*experiment_names(), sep="\n")' | LC_ALL=C sort)"
if [ "$PINNED_NAMES" != "$REGISTERED_NAMES" ]; then
  echo "FAIL: scripts/smoke_fingerprints.txt must pin every registered experiment once" >&2
  diff <(echo "$PINNED_NAMES") <(echo "$REGISTERED_NAMES") >&2 || true
  exit 1
fi
FINGERPRINT_MISMATCHES=0
while read -r EXPERIMENT PINNED; do
  GOT="$(python -m repro.cli run "$EXPERIMENT" --smoke --no-cache-persist \
    --results-dir "$FINGERPRINT_DIR" < /dev/null | sed -n 's/^fingerprint //p')"
  if [ "$GOT" != "$PINNED" ]; then
    echo "$EXPERIMENT: pinned $PINNED, got $GOT" >&2
    FINGERPRINT_MISMATCHES=$((FINGERPRINT_MISMATCHES + 1))
  fi
done < scripts/smoke_fingerprints.txt
if [ "$FINGERPRINT_MISMATCHES" -ne 0 ]; then
  echo "FAIL: $FINGERPRINT_MISMATCHES smoke fingerprint(s) differ from scripts/smoke_fingerprints.txt" >&2
  exit 1
fi
echo "OK: every experiment's smoke fingerprint matches scripts/smoke_fingerprints.txt"

echo "== uncached latency path: figure5 with the caches off keeps its pin =="
# figure5 costs every candidate through the latency memos: operator
# lowerings, the slots' standard-conv programs, compile results and the
# programs' cached structural keys.  With REPRO_EVAL_CACHE=0 every lookup
# computes afresh, so the run must print figure5's pinned fingerprint; a
# memo that returns anything but what it replaces fails here.  It gets its
# own results dir, like the legs before it.
UNCACHED_PIN="$(sed -n 's/^figure5 //p' scripts/smoke_fingerprints.txt)"
UNCACHED_GOT="$(REPRO_EVAL_CACHE=0 python -m repro.cli run figure5 --smoke --no-cache-persist \
  --results-dir "$RESULTS_DIR/uncached" < /dev/null | sed -n 's/^fingerprint //p')"
if [ "$UNCACHED_GOT" != "$UNCACHED_PIN" ]; then
  echo "FAIL: figure5 with REPRO_EVAL_CACHE=0: pinned $UNCACHED_PIN, got $UNCACHED_GOT" >&2
  exit 1
fi
echo "OK: figure5 with the caches off prints its pinned fingerprint $UNCACHED_PIN"

echo "== examples: every example runs; the vision search serial and at 2 shards =="
# The examples are the only callers of SearchSession.run() and the only MCTS
# users outside the tests.  The vision search reads its shard count from
# REPRO_SEARCH_SHARDS alone and must print the same report at either count.
# The Operator 1 case study and the GPT-2 projection example drive the
# lowering, compiler and training APIs directly; only their exit status is
# checked.
python examples/quickstart.py > /dev/null
python examples/case_study_operator1.py > /dev/null
python examples/gpt2_projection_search.py > /dev/null
VISION_SERIAL="$(REPRO_TRAIN_STEPS=1 REPRO_MCTS_ITERATIONS=2 python examples/vision_search.py)"
VISION_SHARDED="$(REPRO_TRAIN_STEPS=1 REPRO_MCTS_ITERATIONS=2 REPRO_SEARCH_SHARDS=2 \
  python examples/vision_search.py)"
if [ "$VISION_SERIAL" != "$VISION_SHARDED" ]; then
  echo "FAIL: the 2-shard vision search report differs from the serial one" >&2
  diff <(echo "$VISION_SERIAL") <(echo "$VISION_SHARDED") >&2 || true
  exit 1
fi
echo "OK: all four examples ran; vision search report identical serial and at 2 shards"

echo "== CLI smoke: repro run figure5 --smoke && repro report =="
python -m repro.cli run figure5 --smoke
python -m repro.cli report

echo "== artifact check =="
ls "$RESULTS_DIR"/runs/*/record.json > /dev/null || {
  echo "FAIL: no result artifact produced under $RESULTS_DIR" >&2
  exit 1
}
echo "OK: result artifacts present"

echo "== process fan-out: --processes 2 must reproduce the serial record =="
# --processes sizes candidate evaluation's fan-out through the same sharded
# executor, and the count stays out of the fingerprint, so the record must
# carry the serial run's identity.  Both runs start cold and the workers'
# cache lookups are counted into the record, so its cache activity must
# equal the serial run's too.  It gets its own results dir: the
# concurrency leg below reads exactly one figure5 record from
# $RESULTS_DIR/runs.
PROCESSES_DIR="$RESULTS_DIR/processes"
python -m repro.cli run figure5 --smoke --processes 2 --no-cache-persist \
  --results-dir "$PROCESSES_DIR" > /dev/null
python - "$RESULTS_DIR" "$PROCESSES_DIR" <<'PY'
import json, sys
from pathlib import Path

def record(root):
    (record,) = [
        json.loads(path.read_text()) for path in sorted(Path(root).glob("runs/*/record.json"))
    ]
    return record

serial, forked = record(sys.argv[1]), record(sys.argv[2])
assert forked["fingerprint"] == serial["fingerprint"], (
    f"--processes 2 fingerprint {forked['fingerprint']} != serial {serial['fingerprint']}"
)
assert forked["cache_stats"] == serial["cache_stats"], (
    f"--processes 2 cache activity {forked['cache_stats']} != serial {serial['cache_stats']}"
)
print(
    f"OK: --processes 2 record matches the serial fingerprint {serial['fingerprint']} "
    "and cache activity"
)
PY

echo "== concurrency stress: two parallel runs race one shared store =="
# Two `repro run`s into one results dir, concurrently.  Both must complete,
# both must publish their cache delta into the shared store (the pre-store
# whole-pickle snapshot was last-writer-wins), and both records must carry
# the serial run's fingerprint — warmth from a concurrent writer can never
# change a result.
STRESS_DIR="$RESULTS_DIR/stress"
REPRO_RESULTS_DIR="$STRESS_DIR" python -m repro.cli run figure5 --smoke \
  > "$RESULTS_DIR/stress-a.log" 2>&1 &
STRESS_A=$!
REPRO_RESULTS_DIR="$STRESS_DIR" python -m repro.cli run figure5 --smoke \
  > "$RESULTS_DIR/stress-b.log" 2>&1 &
STRESS_B=$!
wait "$STRESS_A" || { echo "FAIL: concurrent run A failed" >&2; cat "$RESULTS_DIR/stress-a.log" >&2; exit 1; }
wait "$STRESS_B" || { echo "FAIL: concurrent run B failed" >&2; cat "$RESULTS_DIR/stress-b.log" >&2; exit 1; }
# Each process reported a successful publish (saved or merged, never
# locked/write-failed): its delta reached the store.
for log in "$RESULTS_DIR/stress-a.log" "$RESULTS_DIR/stress-b.log"; do
  grep -q "cache snapshot saved" "$log" || {
    echo "FAIL: $log has no successful cache publish" >&2; cat "$log" >&2; exit 1
  }
done
python - "$RESULTS_DIR" "$STRESS_DIR" <<'PY'
import json, sys
from pathlib import Path

serial_dir, stress_dir = Path(sys.argv[1]), Path(sys.argv[2])

def fingerprints(root):
    records = [
        json.loads(path.read_text())
        for path in sorted(root.glob("runs/*/record.json"))
    ]
    return [r["fingerprint"] for r in records
            if r["experiment"] == "figure5" and r["status"] == "completed"]

(serial,) = fingerprints(serial_dir)  # the CLI smoke leg's run
stress = fingerprints(stress_dir)
assert len(stress) == 2, f"expected 2 concurrent records, found {len(stress)}"
assert set(stress) == {serial}, f"fingerprint divergence: {stress} != {serial}"

from repro.runtime import SharedCacheStore
(store_path,) = (stress_dir / "cache").glob("evaluation-cache-*.pkl")
entries, status = SharedCacheStore(store_path).load()
assert status.status == "loaded", f"shared store not loadable: {status.summary()}"
total = sum(len(per_cache) for per_cache in entries.values())
assert total > 0, "no cache entries survived the concurrent runs"
print(f"OK: concurrent fingerprints match serial; shared store holds {total} entries")
PY

echo "== chaos: a killed shard worker must not change the record =="
# The supervised executor's contract, end to end through the CLI: kill shard
# 1's worker on its first attempt at every sharded fan-out, let the retry
# ladder recover, and require the run's fingerprint to equal the clean serial
# run's.  --expect-failures guards the leg against silently running
# fault-free (a typo'd plan would otherwise pass vacuously).
python -m repro.cli chaos figure5 --smoke --shards 2 \
  --plan "kill:shard-entry:shard=1,attempt=1" --expect-failures
echo "OK: fingerprint parity held under a killed shard worker"

echo "== timing sanity: smoke benches must not regress =="
# figure5 evaluates every candidate's latency at each model slot for three
# targets and two backends.  Loop-nest lowerings are memoized per context
# and tunings per (backend, program, target), so a smoke run takes ~0.2 s
# on a 2-vCPU host.  The 10 s guard leaves room for machine noise but trips
# if the lowering memo stops hitting (the unmemoized run took ~30 s).
python -m repro.cli bench figure5 --smoke --no-compare --max-seconds 10
# figure8 is proxy-training-bound: it must stay fast in absolute terms AND
# keep the compiled-plan + float32 path >= 1.5x over the eager float64
# interpreter at identical budgets (the escape-hatch comparison would
# silently erode otherwise).
python -m repro.cli bench figure8 --smoke --max-seconds 60
python - "$RESULTS_DIR/BENCH_figure8.json" <<'PY'
import json, sys
entry = json.load(open(sys.argv[1]))["entries"][-1]
speedup = entry["speedup_vs_eager_float64"]
assert speedup is not None and speedup >= 1.5, (
    f"compiled-plan speedup regressed: {speedup}x < 1.5x"
)
print(f"OK: compiled-plan speedup {speedup}x (>= 1.5x)")
PY

echo "== serve smoke: coalesced requests must match serial fingerprints =="
# The serving layer's acceptance contract, end to end through the CLI: a
# real SearchServer on an ephemeral port, 3 concurrent socket clients with
# distinct seeds, and — inside `bench serve` itself — a serial
# `run_experiment` of every request whose fingerprint must equal the served
# one.  A clean exit also means the server thread joined (no orphan
# workers); the lock check below ensures the store was released.
SERVE_DIR="$RESULTS_DIR/serve"
python -m repro.cli bench serve --clients 3 --smoke --train-steps 2 --seed 0 \
  --results-dir "$SERVE_DIR"
python - "$SERVE_DIR" <<'PY'
import json, sys
from pathlib import Path

serve_dir = Path(sys.argv[1])
entry = json.loads((serve_dir / "BENCH_serve.json").read_text())["entries"][-1]
assert entry["clients"] == 3, f"expected 3 clients, got {entry['clients']}"
assert entry["parity"] is True, "served fingerprints diverged from serial runs"
coalescer = entry["coalescer"]
assert coalescer["waves"] >= 1, "the coalescer never ran a wave"
amortized = coalescer["coalesced"] + coalescer["cache_hits"]
assert amortized >= 1, f"no cross-client amortization recorded: {coalescer}"
# The serial reruns repeat the served seeds in the same runtime: a children
# miss means the MCTS legal-children memo was not shared across request
# contexts and threads.
children = entry["serial_children"]
assert len(children) == 3, f"expected 3 serial legs, got {children}"
for leg, stats in enumerate(children):
    assert stats["hits"] >= 1 and stats["misses"] == 0, (
        f"serial rerun {leg} did not replay the children memo: {stats}"
    )
locks = list(serve_dir.rglob("*.lock"))
assert not locks, f"store lock(s) left behind: {locks}"
print(f"OK: 3 served fingerprints match serial; "
      f"{coalescer['waves']} wave(s), {amortized} evaluation(s) amortized; "
      f"children memo hits per serial rerun: {[stats['hits'] for stats in children]}")
PY

echo "== library: shard-parity builds + warm-started search =="
# The graph library's determinism contract, end to end through the CLI: each
# design space built serially and rebuilt from scratch at 2 shards must
# produce bit-identical artifacts (same content hash) *and* identical pruning
# statistics (children generated, pruned by shape distance, dead ends, and
# rejections per canonicalization rule: equal entries could still hide a
# shard that prunes differently).  Three builds: resnet at depth 3, the conv
# space the enumerate-conv benchmark builds, where six rules fire and most
# children are generated at the last level (no steps left, so the prune is
# the completeness test); gpt2 at depth 4, the space perfbench's search-gpt2
# and the full-budget searches explore, and the only depth where the prune
# runs at every steps count from 0 to 3 (built into its own directory); and
# gpt2 at depth 3, where three rules fire.  gpt2 at depth 3 goes last:
# a warm-started smoke search against its built library must run green
# (REPRO_WARM_START degrades to a cold search only when no matching library
# exists — here one does, so this exercises frontier seeding + sidecar
# publish for real).
LIB_DIR="$RESULTS_DIR/library-check"
library_field() {  # family, field[, library dir]
  python -m repro.cli library stats "$1" --json \
    --library-dir "${3:-$LIB_DIR}" --results-dir "$RESULTS_DIR" \
    | python -c "import json,sys; v = json.load(sys.stdin)['libraries'][0]['$2']; print(v if isinstance(v, str) else json.dumps(v, sort_keys=True))"
}
# The entry byte contract, checked on every artifact the leg builds without
# the encoder that wrote it: each entry frame must be exactly what the
# reference json.dumps writes for the entry it decodes to, and the SHA-256
# over the frames sorted by (depth, signature) must be the meta frame's
# content hash.
entry_bytes() {  # library dir...
  python - "$@" <<'PY'
import glob, hashlib, json, os, sys
from repro.library.store import read_frames

for root in sys.argv[1:]:
    paths = sorted(glob.glob(os.path.join(root, "*.rplb")))
    assert paths, f"no library artifact under {root}"
    for path in paths:
        meta, *frames = read_frames(path)
        meta = json.loads(meta)
        assert len(frames) == meta["entries"], f"{path}: {len(frames)} frames, meta says {meta['entries']}"
        keyed = []
        for frame in frames:
            entry = json.loads(frame)
            reference = json.dumps(entry, sort_keys=True, separators=(",", ":")).encode("utf-8")
            assert frame == reference, f"{path}: entry frame is not the reference JSON:\n  {frame!r}\n  {reference!r}"
            keyed.append(((entry["depth"], entry["signature"]), frame))
        digest = hashlib.sha256()
        for _, frame in sorted(keyed, key=lambda item: item[0]):
            digest.update(frame + b"\n")
        assert digest.hexdigest() == meta["content_hash"], (
            f"{path}: SHA-256 over the entry frames {digest.hexdigest()} != content hash {meta['content_hash']}"
        )
        print(f"OK: {path}: {len(frames)} entry frames are the reference JSON and hash to its content hash")
PY
}
shard_parity() {  # family, max depth, library dir; sets HASH_SERIAL
  rm -rf "$3"
  python -m repro.cli library build "$1" --max-depth "$2" --shards 1 \
    --library-dir "$3" --results-dir "$RESULTS_DIR"
  HASH_SERIAL="$(library_field "$1" content_hash "$3")"
  STATS_SERIAL="$(library_field "$1" stats "$3")"
  entry_bytes "$3"
  rm -rf "$3"
  python -m repro.cli library build "$1" --max-depth "$2" --shards 2 \
    --library-dir "$3" --results-dir "$RESULTS_DIR"
  HASH_SHARDED="$(library_field "$1" content_hash "$3")"
  entry_bytes "$3"
  STATS_SHARDED="$(library_field "$1" stats "$3")"
  if [ "$HASH_SERIAL" != "$HASH_SHARDED" ]; then
    echo "FAIL: serial ($HASH_SERIAL) and 2-shard ($HASH_SHARDED) depth-$2 $1 library builds diverge" >&2
    exit 1
  fi
  if [ "$STATS_SERIAL" != "$STATS_SHARDED" ]; then
    echo "FAIL: serial and 2-shard depth-$2 $1 library builds prune differently:" >&2
    echo "  serial:  $STATS_SERIAL" >&2
    echo "  2-shard: $STATS_SHARDED" >&2
    exit 1
  fi
  echo "OK: depth-$2 $1 library builds bit-identical across shard counts ($HASH_SERIAL), same pruning statistics"
}
shard_parity resnet 3 "$LIB_DIR"
RESNET_HASH="$HASH_SERIAL"
RESNET_STATS="$STATS_SERIAL"
shard_parity gpt2 4 "$RESULTS_DIR/library-gpt2-depth4"
shard_parity gpt2 3 "$LIB_DIR"
GPT2_HASH="$HASH_SERIAL"
# The enumerate-conv benchmark builds four conv families at depth 3, and
# perfbench/golden.json pins their content hashes.  They share one
# enumeration space, so one process builds every family at depth 3 at 2
# shards: densenet (first in name order) enumerates the conv space cold, and
# efficientnet, resnet and resnext build against the legal-children memo the
# shard workers merged back.  Each warm build must equal its cold build:
# all four conv hashes equal the golden file (read here, never written),
# resnet's equals the cold parity build's, gpt2's equals its depth-3 parity
# hash, and every conv family prunes exactly as resnet's cold serial build.
CONV_DIR="$RESULTS_DIR/library-conv"
rm -rf "$CONV_DIR"
python -m repro.cli library build all --max-depth 3 --shards 2 \
  --library-dir "$CONV_DIR" --results-dir "$RESULTS_DIR"
python - "$RESNET_HASH" "$GPT2_HASH" "$RESNET_STATS" \
  "$(library_field resnet content_hash "$CONV_DIR")" \
  "$(library_field resnext content_hash "$CONV_DIR")" \
  "$(library_field densenet content_hash "$CONV_DIR")" \
  "$(library_field efficientnet content_hash "$CONV_DIR")" \
  "$(library_field gpt2 content_hash "$CONV_DIR")" \
  "$(library_field resnet stats "$CONV_DIR")" \
  "$(library_field resnext stats "$CONV_DIR")" \
  "$(library_field densenet stats "$CONV_DIR")" \
  "$(library_field efficientnet stats "$CONV_DIR")" <<'PY'
import json, sys
resnet_cold, gpt2_cold, stats_cold, *rest = sys.argv[1:]
families = ("resnet", "resnext", "densenet", "efficientnet")
built = dict(zip(families, rest[:4]))
gpt2_built = rest[4]
stats = dict(zip(families, rest[5:]))
with open("perfbench/golden.json", encoding="utf-8") as handle:
    golden = json.load(handle)["enumerate-conv"]
assert built == golden, f"depth-3 conv libraries diverge from perfbench/golden.json: {built} != {golden}"
assert built["resnet"] == resnet_cold, (
    f"warm resnet build {built['resnet']} != cold parity build {resnet_cold}"
)
assert gpt2_built == gpt2_cold, f"gpt2 depth-3 build {gpt2_built} != its parity build {gpt2_cold}"
for family, family_stats in stats.items():
    assert family_stats == stats_cold, (
        f"{family} prunes differently from resnet's cold serial build:\n"
        f"  {family}: {family_stats}\n  resnet:  {stats_cold}"
    )
print("OK: one-process depth-3 build of every family: the four conv libraries match "
      "perfbench/golden.json, resnet and gpt2 match their cold parity builds, "
      "and every conv family prunes as resnet's cold serial build")
PY
# With the caches off there is no legal-children memo, so every level of a
# 2-shard build takes its children from what the shard workers returned:
# the only leg where they, not the memo, feed the build.  It must reproduce
# the golden resnet hash and resnet's cold serial statistics.
NOCACHE_DIR="$RESULTS_DIR/library-nocache"
rm -rf "$NOCACHE_DIR"
REPRO_EVAL_CACHE=0 python -m repro.cli library build resnet --max-depth 3 --shards 2 \
  --library-dir "$NOCACHE_DIR" --results-dir "$RESULTS_DIR"
python - "$RESNET_STATS" \
  "$(library_field resnet content_hash "$NOCACHE_DIR")" \
  "$(library_field resnet stats "$NOCACHE_DIR")" <<'PY'
import json, sys
stats_cold, built, stats = sys.argv[1:]
with open("perfbench/golden.json", encoding="utf-8") as handle:
    golden = json.load(handle)["enumerate-conv"]["resnet"]
assert built == golden, f"caches-off resnet build {built} != perfbench/golden.json {golden}"
assert stats == stats_cold, (
    f"caches-off resnet build prunes differently:\n  {stats}\n  cold serial: {stats_cold}"
)
print("OK: caches-off 2-shard resnet build matches perfbench/golden.json "
      "and resnet's cold serial statistics")
PY
entry_bytes "$CONV_DIR" "$NOCACHE_DIR"
# A finished build, warm or cold, leaves neither a checkpoint nor a temp
# file: the warm conv builds above wrote no checkpoint, and every cold or
# caches-off build removed its own once its artifact was saved.
LEFTOVERS="$(find "$LIB_DIR" "$RESULTS_DIR/library-gpt2-depth4" "$CONV_DIR" "$NOCACHE_DIR" \
  \( -name '*.ckpt' -o -name '*.tmp.*' \) -print)"
if [ -n "$LEFTOVERS" ]; then
  echo "FAIL: finished library builds left checkpoints or temp files behind:" >&2
  echo "$LEFTOVERS" >&2
  exit 1
fi
echo "OK: no finished library build left a checkpoint or temp file"
REPRO_WARM_START=1 REPRO_LIBRARY_DIR="$LIB_DIR" \
  python -m repro.cli run search --smoke
echo "OK: warm-started search green"

echo "== sharded sweep: bench --all at 1 and 2 shards must agree =="
# Every registered experiment, once per shard setting, into one trajectory
# file per setting.  Since the RuntimeContext redesign this exercises the
# explicit context path end to end: the CLI edge builds the context from the
# environment, --shards becomes an explicit config override on a derived
# context, and the sharded executor ships/bootstraps contexts in its forked
# workers.  A tiny training budget keeps this a smoke test; what it
# guards is (a) every experiment still runs under the sharded executor and
# (b) the sharded sweep never costs *grossly* more than serial.  At smoke
# scale the margin below is dominated by its absolute term, so this catches
# catastrophic structural regressions (a per-wave fork storm, cache
# re-pickling per item), not small overheads — fine-grained shard perf is
# the acceptance bench's job, not this smoke job's.
python -m repro.cli bench --all --smoke --no-compare --train-steps 2 --seed 0 \
  --shards 1 --output "$RESULTS_DIR/BENCH_all_serial.json"
python -m repro.cli bench --all --smoke --no-compare --train-steps 2 --seed 0 \
  --shards 2 --output "$RESULTS_DIR/BENCH_all_sharded.json"
python - "$RESULTS_DIR/BENCH_all_serial.json" "$RESULTS_DIR/BENCH_all_sharded.json" <<'PY'
import json, sys
serial = json.load(open(sys.argv[1]))["entries"]
sharded = json.load(open(sys.argv[2]))["entries"]
assert [e["experiment"] for e in serial] == [e["experiment"] for e in sharded]
total_serial = sum(e["compiled"]["mean_seconds"] for e in serial)
total_sharded = sum(e["compiled"]["mean_seconds"] for e in sharded)
# Generous margin: both legs are live measurements on a possibly-noisy host,
# so only a gross structural regression should trip this, never scheduler
# jitter.
assert total_sharded <= total_serial * 1.5 + 20.0, (
    f"sharded sweep regressed: {total_sharded:.1f}s vs serial {total_serial:.1f}s"
)
print(f"OK: bench --all serial {total_serial:.1f}s, 2 shards {total_sharded:.1f}s")
PY
