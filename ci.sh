#!/bin/sh
# Tier-1 gate: what must stay green on every commit.
#
#   ./ci.sh                          full gate
#   ./ci.sh explain-goldens          only the EXPLAIN golden check
#   ./ci.sh explain-goldens --bless  regenerate the goldens after an
#                                    intentional unnesting/rewriter/plan
#                                    change
#   ./ci.sh plan-goldens [--bless]   the join-order goldens: Q5/Q7/Q8/Q9/
#                                    Q18/Q21 chosen order + estimated vs
#                                    actual cardinalities (timings masked),
#                                    every estimate from the one model the
#                                    search priced the plan with; Q21
#                                    carries the semi and anti join
#                                    estimates, Q18 its semi join's
#                                    placement; Q5/Q7/Q8's cold order must
#                                    equal the reoptimized one; the summed
#                                    |log2 q-error| stays in its budget
set -eux

explain_goldens() {
    if [ "${1:-}" = "--bless" ]; then
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test explain_goldens
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens analyze_slice
        # Re-check: blessed goldens must round-trip clean.
        cargo test -q --release -p sqalpel-engine --test explain_goldens
        cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens
    else
        cargo test -q --release -p sqalpel-engine --test explain_goldens
        cargo test -q --release -p sqalpel-engine --test explain_analyze_goldens
    fi
}

plan_goldens() {
    if [ "${1:-}" = "--bless" ]; then
        SQALPEL_BLESS=1 cargo test -q --release -p sqalpel-engine --test plan_goldens adaptive_plans
        cargo test -q --release -p sqalpel-engine --test plan_goldens
    else
        cargo test -q --release -p sqalpel-engine --test plan_goldens
    fi
}

if [ "${1:-}" = "explain-goldens" ]; then
    shift
    explain_goldens "$@"
    exit 0
fi

if [ "${1:-}" = "plan-goldens" ]; then
    shift
    plan_goldens "$@"
    exit 0
fi

cargo build --release
cargo test -q
# The wire layer's loopback e2e suite: concurrent clients with injected
# connection drops must drain the queue with zero double-reports.
cargo test -q -p sqalpel-core --test wire_loopback
# The v1-vs-v2 differential wall: one server over both transports must
# answer with identical decoded values everywhere (replies, typed
# errors, CSV, pipelined-vs-serial), v2 mid-frame drops never double-
# report, and warm plan-cache hits return byte-identical results.
cargo test -q -p sqalpel-core --test wire_differential
# Both wire codecs byte for byte: every request, reply, error and v2
# connection frame against fixtures the per-variant codecs wrote, plus
# the typed error and status of each malformed-input case.
cargo test -q -p sqalpel-core --test wire_codec_golden
# EXPLAIN plans for the full TPC-H + SSB flights are pinned: any drift in
# the binder/unnesting/rewriter/ir output fails here until re-blessed.
# The same suite holds the ratchet that no TPC-H plan evaluates a
# subquery per outer row (the cached uncorrelated scalars are listed),
# and the rule that executing a query on either engine reports its
# EXPLAIN fingerprint. The alignment wall rides along: over both flights,
# both engines, 1 and 4 workers, EXPLAIN ANALYZE's flat operator rows are
# its annotated lines one for one, label and counters (the benchmark
# reads self times off that pairing).
explain_goldens
# The cost-based optimizer's plan goldens: chosen join order plus
# estimated-vs-actual cardinalities for the five join-heavy queries and
# Q18, including the adaptive second pass. Every estimate comes from the
# one cardinality model the search priced the plan with, so each inner
# join shows the estimate the search held for its leaf set, the number
# that chose the plan, and a derived table its body's (on Q21, est vs
# actual of the semi and anti joins its EXISTS / NOT EXISTS became,
# which stay on top: their leaf is estimated larger than the region; on
# Q18, its IN's semi join on `orders` below the three-way join, cold,
# and back on top where the reoptimized leaf and region both observe 0
# rows, a tie). The estimator must rank plans cold: Q5, Q7 and Q8's cold
# join order is the reoptimized one, at SF 0.001 (seed 42) and SF 0.02
# (seed 15). The summed |log2 q-error| of the goldens is printed per
# file and must stay within the pinned budget.
plan_goldens
# Every logical rewrite must be result-preserving, byte-for-byte, on both
# engines at 1 and 4 workers. This is also the unnesting wall: semi, anti
# and group joins against per-row evaluation (rewriter off) on NULL
# probes, NULLs in the set, empty sets and groups, duplicate inner keys
# and every fallback shape — each case checked to take the path it is
# named for, and to execute under its EXPLAIN fingerprint on both
# engines — plus Q4/Q20 on ColStore at SF 0.005 under the default
# budget, which the per-row path blew. Pruning and the CTE-pushdown gate
# read the bound subquery bodies, so the wall also holds an outer column
# only a body left in place reads (beside a nested body that does not
# bind, too) and a CTE such a body scans, which must stay unfiltered.
# Pushdown sinks a conjunct through every join it can pass in one pass:
# a WHERE conjunct on a derived table three joins down must end up
# inside its body in EXPLAIN.
cargo test -q --release -p sqalpel-engine --test rewriter_equivalence
# Join reordering must be result-preserving too: optimizer on vs off,
# both engines, 1 and 4 workers, identical row sets and fingerprints —
# plus the self-checks that "off" really binds and executes the
# syntactic plan (different EXPLAIN text; a row budget only the
# optimized plan fits). The placement pass runs either way, so the
# corner cases include a 17-way chain one past MAX_DP (as bound, keys
# placed, under the default budget), a bushy as-bound tree, and a
# two-table non-equality beside a three-table equality. The memo also
# moves a semi or anti join onto the one leaf it reads when that leaf is
# estimated smaller than the region: the placement cases (IN under a
# three-way join, NOT IN over a set holding a NULL and NOT EXISTS below
# an inner join, EXISTS reading two leaves, a semi + anti chain on one
# leaf and one split across the region) are each checked to land where
# they are named for, on and off, with identical rows.
cargo test -q --release -p sqalpel-engine --test optimizer_equivalence
# The cardinality estimator's invariants (selectivity in [0,1], conjunct
# monotonicity — also where bounds on one column intersect into an
# interval —, semi + anti estimates partition the left input, a
# composite join key between its pairs' product and their minimum) under
# random predicates and degenerate statistics.
cargo test -q --release -p sqalpel-engine --test cost_props
# Thread invariance, the primary wall for the one-operator-at-any-
# worker-count design: both flights, both engines, 1 worker against 4;
# then the shapes where a kernel split over ranges and partitions could
# diverge from one pass over the whole input:
# skewed groups, join extremes, untyped (float, boxed, NULL) keys in
# inner/semi/anti joins and GROUP BY — also ColStore against RowStore —
# budget exhaustion, and a predicate that fails on one row of one chunk
# (same error at every worker count, conjunct order respected).
cargo test -q --release -p sqalpel-engine --test parallel_differential
cargo test -q --release -p sqalpel-engine --test parallel_adversarial
# Profiling must be observation-only: both flights, both engines, 1 and 4
# workers, profiler on vs off — identical results and row counts.
cargo test -q --release -p sqalpel-engine --test metrics_invariance
# The metrics histograms' merge algebra: associative, commutative and
# conserving every count under arbitrary recorded sequences.
cargo test -q --release -p sqalpel-core --test metrics_props
# Prepared expressions are unobservable: same values bit for bit and same
# errors as the per-row tree walk they replaced (kept there as the
# oracle), in both modes, with `Prepared::eval_num`'s number or error
# the value wherever the typed walk takes the expression (guarded
# decimals included), erroring constants only where evaluation reaches
# them, and compiled LIKE patterns against the old char-vector matcher.
cargo test -q --release -p sqalpel-engine --test eval_props
# The arithmetic walls again in a debug build, where an integer that
# wraps panics instead: every other line here runs --release, which
# wraps silently. The engine's in-file tests hold the three arithmetic
# entry points (the boxed `value` operations, the typed walk and
# ColStore's lane kernel) to one another over i64/i32 edges, decimals,
# dates and intervals; sql_semantics and eval_props run the same
# operations end to end. Here too: a decimal literal past `i128` stays a
# float (sql_semantics), a mirrored comparison is the swapped one
# (eval_props), and the sum accumulator's rescale at scales 0-6, with
# its overflow texts, under every merge split (the in-file tests).
cargo test -q -p sqalpel-engine --lib --test sql_semantics --test eval_props
# Compressed storage: dict/FoR round-trips and zone-map soundness (a
# skipped chunk must hold no qualifying row, checked against raw data —
# also end to end through the row engine's scan front end, and a
# `date ± interval` bound must prune what its folded literal prunes).
cargo test -q --release -p sqalpel-engine --test storage_props
# Selection-vector filters, dict probes and the row engine's scan ->
# filter -> join -> group pipeline must stay allocation-lean. A Q1-shaped
# aggregate list (two dictionary keys; sum and avg of one column, a
# product and that product inside a longer one) allocates nothing per
# row on RowStore, and on ColStore only its scan's columns and one
# column per distinct kernel, at 1 and 4 workers: a bare column copied,
# or a shared subexpression evaluated once per occurrence, fails it.
cargo test -q --release -p sqalpel-engine --test alloc_discipline
# Clippy over the whole workspace, including the ir module (bind/rewrite/
# explain) that both engines now lower from.
cargo clippy --workspace --all-targets -- -D warnings
# The engine's hot loops must stay allocation-lean: these lints catch the
# collect-then-iterate and clone-a-key patterns the radix kernels removed.
cargo clippy -p sqalpel-engine --all-targets -- -D warnings -D clippy::needless_collect -D clippy::redundant_clone
# Every intra-doc link resolves, and none points at a private item.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
# Admission-control invariants: the per-user in-flight count is exact
# against a reference model under any interleaving of reserves and
# releases by count, and on a server every path that moves a task out of
# Running — report, error report, batch report, reaper — returns its slot.
cargo test -q --release -p sqalpel-core --test admission_props
# The queue's O(1) bookkeeping is the scans it replaced: per-state counts
# and open tasks per experiment against the deleted scans (kept in the
# test as the oracle) after every step of random enqueue / checkout +
# claim / claim by id / complete / reap / requeue sequences, and equal
# counts again after snapshot -> restore and WAL -> streamed replay.
cargo test -q --release -p sqalpel-core --test queue_props
# One transition per record: the live state is the replay of its own
# log. Random sequences of all 19 logging ops (nonce claims, batches,
# zero-timeout reaps, requeues, hidden results, checkpoints) on a durable
# server with one append failed at a random step: after every op the
# live state's fingerprint (its checkpoint lines, hashed) equals what the
# state dir recovers to, each user's in-flight count equals a recount of
# the Running tasks their keys hold on the live and the recovered server,
# every retried claim (each key, target and nonce) resumes the same task
# on both, the failed op returned Err and changed nothing, and the same
# sequence in memory ends in the same state. Plus the four two-call
# sequences whose failed first append once left a state dir that would
# not reopen.
cargo test -q --release -p sqalpel-core --lib live_is_replay
# Every JSON type's one description, both directions: the log,
# checkpoint and CSV the last value-tree build wrote (tests/golden/, all
# 18 ops and every checkpoint line kind) are what today's text sink
# writes and what its lines re-encode to; text sink == tree sink and
# encode -> decode -> encode on random values of every table type (WAL
# records, the v1 DTOs, metrics, errors, checkpoint lines); the legacy-input table (each
# key older writers leave out reads as its default, every other key is
# required, a non-hex fingerprint is an error and fails replay naming
# its LSN, a mistyped checkpoint value fails the read naming its key);
# every line read as a tree prints back; a line cut at any byte is torn.
cargo test -q --release -p sqalpel-core --test wal_codec_props
# The hostile-JSON wall: random bytes and mutated log and checkpoint lines
# (bytes flipped, inserted, cut; nesting past the reader's bound) through
# every JSON reader — a Value, a WAL record, a checkpoint line, v1
# request and reply bodies, the v2 JSON-text fields — return Ok or Err,
# never panic or abort; what reads is a decode -> encode fixed point, and
# what the printer writes reads back byte for byte.
cargo test -q --release -p sqalpel-core --test hostile_json
# The task path's allocation and memory contract: allocations per
# request_task and report_result pinned (2 and 3 in memory, 2 and 5 on a
# durable server; they measure 2 and 3 on both now that a contributor
# key shares its text, the record an op logs is the record it applies,
# and held tasks are recorded by the queue alone), the
# in-process drain of 160k tasks flat from first to last, replay of a
# 20k-task, 10k-report log peaking within 1.25x of the recovered state
# (it streams), and a 40k-task enqueue line written and replayed within
# the state plus twice the line's bytes.
cargo test -q --release -p sqalpel-core --test alloc_discipline
# Bulk-upload differential wall: the same experiment reported per-record
# over v1, per-record over v2 and as one streamed v2 batch must export
# byte-identical CSVs with identical queue counters; a connection killed
# mid-continuation-frame leaves no partial batch and a retry delivers
# exactly once.
cargo test -q --release -p sqalpel-core --test bulk_differential
# Server-push delivery contract: exactly one QueueReady per parked
# subscription per wake event (proptest vs a reference model), nothing to
# closed subscriptions, exactly one ExperimentFinished when the reaper
# times out an experiment's last open tasks, and push-subscribed worker
# pools drain late work with queue.empty_polls pinned at zero.
cargo test -q --release -p sqalpel-core --test push_props
# Crash-recovery e2e: kill -9 a durable `repro serve` mid-walk, restart,
# and require byte-identical acked results, re-hand-out of the open claim
# to its original key only, and a snapshot on SIGTERM — plus the bulk
# path: an acked batch replays byte-identical from its one group-commit
# record, a torn group commit drops the whole batch atomically, and the
# claims it leaves in flight keep their nonces (a fresh nonce after the
# restart never gets one of them back).
cargo test -q --release -p sqalpel-bench --test crash_recovery
# The contributor command line end to end: `repro contribute` against a
# live `repro serve` drains each demo target — v1 one task at a time, v2,
# and v2 `--bulk` — exits 0 with a "queue drained" count equal to the
# target's queued tasks, and exits 2 on a DBMS label no engine reports.
cargo test -q --release -p sqalpel-bench --test contribute_e2e
# Every test of every workspace package, so nothing runs only by hand:
# the suites no line above names (cross_engine, sql_semantics, the
# engine's differential walls, `repro fig2/3/4/7` end to end) and the
# in-file unit tests of -engine, -grammar, -sql, -datagen and -core
# (for_label, the contributor loop).
cargo test --workspace --release -q
# The examples run, not only compile: each asserts what it shows (the
# engines agree on quickstart's queries, reruns repeat their answers),
# and the timing ones measure through the experiment driver.
for example in quickstart airtraffic_study discriminative_hunt repeatability; do
    cargo run --release -q --example "$example"
done
# The benchmark (BENCHMARK.json): all five workloads at smoke length with
# every output check on — engines agree with the goldens, every task
# acked once, ReportBatch index order, CSV byte-identical after reopening
# the state dir. Writes nothing.
bash benchmark/run.sh --smoke
# The benchmark's own unit tests, including spec.rs == BENCHMARK.json.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
