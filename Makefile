.PHONY: build test lint cram check check-smoke examples-smoke bench bench-json bench-gate metrics-smoke perfbench-smoke profile clean

build:
	dune build

test:
	dune runtest

# Source hygiene.  The build image has no ocamlformat, so the lint is
# the closest equivalent: `dune build @check` typechecks every module
# (including ones no executable pulls in) with warning 60 as an error
# (the root `dune` file's dev flags), so an unused module alias left
# behind by a deletion fails it, and a grep rejects trailing
# whitespace and tab indentation in OCaml sources.  A second grep
# rejects catch-all exception handlers (`with _ ->`) outside test/:
# they swallow Out_of_memory and Stack_overflow and have twice hidden
# real parse bugs.  A deliberate catch-all must carry the annotation
# `(* lint: allow-catch-all *)` on the same line.
lint:
	dune build @check
	@if grep -rnI --include='*.ml' --include='*.mli' -e ' $$' -e '	' \
	  lib bin test examples bench tools; then \
	  echo "lint: trailing whitespace / tab indentation found"; exit 1; \
	else echo "lint: clean"; fi
	@if grep -rnI --include='*.ml' 'with _ ->' lib bin examples bench tools \
	  | grep -v 'lint: allow-catch-all'; then \
	  echo "lint: catch-all handler; name the exception or annotate" \
	    "with (* lint: allow-catch-all *)"; exit 1; \
	else echo "lint: no catch-all handlers"; fi

# The CLI cram tests, re-run even when dune's cache is warm: cli.t pins
# the session/mutation surface (stable link ids, stale-id and
# non-finite updates as script errors, the warm-replan output format)
# and check.t the static-analysis reports; both pin the CLI's exit-2
# paths (spec errors, script errors, bad topology sizes).
cram:
	dune test --force test/cli.t test/check.t

# One-stop verification: lint, build, the full test suite (unit +
# property + cram), an explicit uncached run of the CLI crams, the
# static-analysis, metrics, spec-to-verdict and example smokes, and a
# fresh machine-readable bench run re-parsed through the JSON schema
# checker and diffed against the checked-in baseline.
check:
	$(MAKE) lint
	dune build
	dune runtest
	$(MAKE) cram
	$(MAKE) check-smoke
	$(MAKE) metrics-smoke
	$(MAKE) perfbench-smoke
	$(MAKE) examples-smoke
	$(MAKE) bench-gate

# Static-analysis smoke: `sekitei check` must accept every shipped
# feasible spec and prove the capacity-starved diamond infeasible
# (exit 2) without ever running the RG search.  Guards both directions
# of the preflight analyzer: a grounding change that kills a feasible
# spec, or one that loses the infeasibility proof, fails here.
check-smoke:
	dune build bin
	@for spec in examples/specs/*.spec; do \
	  case $$spec in \
	  *infeasible*) \
	    dune exec -- sekitei check --spec $$spec > /dev/null 2>&1; \
	    test $$? -eq 2 || \
	      { echo "check-smoke: $$spec: expected infeasibility (exit 2)"; \
	        exit 1; }; \
	    echo "check-smoke: $$spec proven infeasible";; \
	  *) \
	    dune exec -- sekitei check --spec $$spec > /dev/null || \
	      { echo "check-smoke: $$spec: expected a clean report"; exit 1; }; \
	    echo "check-smoke: $$spec clean";; \
	  esac; \
	done

# Example smoke: the programs under examples/ are the documented entry
# points to the library API, and nothing else runs them.  Run each one
# and fail on the first non-zero exit.
examples-smoke:
	dune build examples
	@for src in examples/*.ml; do \
	  e=$$(basename $$src .ml); \
	  dune exec ./examples/$$e.exe > /dev/null || \
	    { echo "examples-smoke: $$e exited non-zero"; exit 1; }; \
	  echo "examples-smoke: $$e ok"; \
	done

# Regression gate: rerun the tracked scenarios and fail if any gated
# metric (search_ms, rg_created, slrg_ms, warm_search_ms,
# compile_minor_words) regressed >200% against BENCH_rg.json.  The
# timing threshold is deliberately loose — the small scenarios finish in
# well under a millisecond, where run-to-run noise is large — while
# rg_created and compile_minor_words are exactly reproducible, so an
# algorithmic search-space or grounding blowup trips the gate on any
# hardware.
# After an intentional perf change, refresh the baseline with
# `make bench-json` and commit the BENCH_rg.json diff.
bench-gate:
	dune exec bench/main.exe -- --json --check --repeat 3 \
	  --out _build/sekitei_bench_gate.json \
	  --baseline BENCH_rg.json --max-regress 200

# Observability smoke: plan Small-C through the metrics subcommand and
# schema-validate both exposition formats (--check exits 3 on a schema
# violation), then force a deadline failure with the flight recorder
# armed and assert the dump is written and readable.  Last, force a
# Search_limit dump (--rg-budget 5, where every compared count is
# non-zero) and assert that the counter table trace_report reads from
# it shows the same rg.created, rg.expanded, rg.ungenerated and
# plrg.relevant_props/_actions as the run's Stats line (rg=, expanded=,
# ungenerated=, plrg=P/A): the trace's counts are the report's.  Guards
# the always-on metrics path end to end: an encoder change that would
# break a scraper or the postmortem tooling fails here, not on a
# dashboard.
metrics-smoke:
	dune build bin tools
	dune exec -- sekitei metrics --network small --levels C --repeat 2 \
	  --check > /dev/null
	dune exec -- sekitei metrics --network small --levels C --format json \
	  --check > /dev/null
	@rm -f _build/sekitei_flight_smoke.jsonl
	-dune exec -- sekitei plan --network small --levels C --deadline 0 \
	  --flight _build/sekitei_flight_smoke.jsonl > /dev/null 2>&1
	@test -s _build/sekitei_flight_smoke.jsonl || \
	  { echo "metrics-smoke: no flight dump written"; exit 1; }
	@dune exec -- tools/trace_report.exe _build/sekitei_flight_smoke.jsonl \
	  | grep -q "flight-recorder dump" || \
	  { echo "metrics-smoke: trace_report cannot read the dump"; exit 1; }
	@rm -f _build/sekitei_flight_limit.jsonl
	-dune exec -- sekitei plan --network small --levels C --rg-budget 5 \
	  --flight _build/sekitei_flight_limit.jsonl \
	  > _build/sekitei_flight_limit.out 2>&1
	@dune exec -- tools/trace_report.exe _build/sekitei_flight_limit.jsonl \
	  > _build/sekitei_flight_limit.report
	@same() { \
	  stats=$$(sed -n "s|^Stats: .* $$1.*|\1|p" \
	    _build/sekitei_flight_limit.out); \
	  dumped=$$(sed -n "s/^| $$2 *| *\([0-9]*\) |$$/\1/p" \
	    _build/sekitei_flight_limit.report); \
	  test -n "$$stats" && test "$$stats" = "$$dumped" || \
	  { echo "metrics-smoke: $$2 is '$$dumped' in the Search_limit dump" \
	      "but '$$stats' on the Stats line"; exit 1; }; }; \
	  same 'rg=\([0-9]*\)/' 'rg\.created' && \
	  same 'expanded=\([0-9]*\) ' 'rg\.expanded' && \
	  same 'ungenerated=\([0-9]*\) ' 'rg\.ungenerated' && \
	  same 'plrg=\([0-9]*\)/' 'plrg\.relevant_props' && \
	  same 'plrg=[0-9]*/\([0-9]*\) ' 'plrg\.relevant_actions'
	@echo "metrics-smoke: ok"

# Spec-to-verdict smoke: a 2 s run of each perfbench workload (release
# build in .bench_build, see perfbench/README.md).  Every run checks its
# own verdicts — the optimum of 76, certification of each plan, "no plan"
# on the infeasible corpus, warm == cold after every session delta — and
# the smoke fails unless the result line reports them all correct with
# no failed request.
PERFBENCH_WORKLOADS = cold-fine session-churn infeasible

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 \
	    --seconds 2 --trace 0) || \
	    { echo "perfbench-smoke: $$w: run failed"; exit 1; }; \
	  line=$$(echo "$$out" | tail -n 1); \
	  echo "$$line" | python3 -c 'import json, sys; \
	    r = json.loads(sys.stdin.read()); \
	    sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || \
	    { echo "perfbench-smoke: $$w: $$line"; exit 1; }; \
	  echo "perfbench-smoke: $$w ok"; \
	done

# Full benchmark run: every paper exhibit, ablations, microbenchmarks.
bench:
	dune exec bench/main.exe

# Machine-readable planner benchmark: writes BENCH_rg.json (and stdout).
# The perf trajectory of the RG search is tracked across commits there.
# Timings are the median of 3 repeats (first-run JIT/GC noise dominates
# single-shot numbers), the same configuration the bench-gate measures
# against.  Each record also carries warm_search_ms, the search time of
# a session re-plan that reuses the compiled problem and the hot SLRG
# oracle.
bench-json:
	dune exec bench/main.exe -- --json --tag partial-expansion --repeat 3

# Profile the Small-C run: trace every planner phase to JSONL and render
# the span tree / counter summary.
profile:
	dune build bin tools
	dune exec -- sekitei plan --network small --levels C \
	  --trace _build/sekitei_profile.jsonl > /dev/null
	dune exec -- tools/trace_report.exe _build/sekitei_profile.jsonl

clean:
	dune clean
