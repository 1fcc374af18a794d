# Convenience targets; `make ci` is what a pipeline should run.

.PHONY: all build test fmt lint ci clean profile telemetry \
	bench-analysis-mem perfbench perfbench-pairs

# Workload for `make profile`, e.g. `make profile WORKLOAD=parboil/sgemm`.
WORKLOAD ?= rodinia/bfs

all: build

build:
	dune build

test:
	dune runtest

# Format check only where ocamlformat exists; the toolchain image
# does not ship it, and dune's @fmt alias fails hard without it.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Static analysis over every registered workload's kernels; exits
# non-zero on any error-severity finding (warnings are printed).
lint: build
	dune exec bin/sassi_run.exe -- lint all

ci: fmt
	dune build
	dune runtest
	dune exec bin/sassi_run.exe -- --query-metrics > /dev/null
	dune exec bin/sassi_run.exe -- --build-info > /dev/null
	@# Verifier gate: zero error-severity findings across the suite,
	@# every shared-memory access race-classified under its real launch
	@# (no proven races), and no kernel regressing from proven-safe to
	@# unknown against the committed baseline (race-waivers.txt lists
	@# deliberate exemptions).
	dune exec bin/sassi_run.exe -- lint all --prove-races \
	  --race-baseline race-baseline.json --race-waivers race-waivers.txt
	@# Memory-prediction gate: static bank-conflict degree and
	@# coalesced-transaction predictions must match the machine's own
	@# counters exactly on the affine workloads (sgemm fully exact,
	@# spmv's direct sites exact); writes BENCH_analysis_mem.json.
	dune exec bench/main.exe -- analysis-mem
	@# Compare smoke test: two identical runs must diff clean (exit 0).
	@tmp=$$(mktemp -d); \
	dune exec bin/sassi_run.exe -- run parboil/sgemm --variant small \
	  --manifest $$tmp/a.json > /dev/null; \
	dune exec bin/sassi_run.exe -- run parboil/sgemm --variant small \
	  --manifest $$tmp/b.json > /dev/null; \
	dune exec bin/sassi_run.exe -- compare $$tmp/a.json $$tmp/b.json \
	  || { echo "ci: identical runs reported a regression"; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp
	@# Seeded regression: shrinking L1 on a cache-sensitive workload
	@# (spmv reuses its row pointers; sgemm streams and would not move)
	@# must trip the comparator (exit 1).
	@tmp=$$(mktemp -d); \
	dune exec bin/sassi_run.exe -- run parboil/spmv --variant small \
	  --manifest $$tmp/base.json > /dev/null; \
	dune exec bin/sassi_run.exe -- run parboil/spmv --variant small \
	  --l1-bytes 512 --manifest $$tmp/bad.json > /dev/null; \
	if dune exec bin/sassi_run.exe -- compare $$tmp/base.json $$tmp/bad.json > /dev/null; then \
	  echo "ci: seeded regression was not detected"; rm -rf $$tmp; exit 1; \
	fi; \
	rm -rf $$tmp; \
	echo "ci: compare smoke + seeded-regression checks passed"
	@# Parallel determinism and host tracing, on one campaign: a
	@# --jobs 2 campaign must produce the same manifest counters as
	@# --jobs 1 (the comparator ignores wall time and argv, so any diff
	@# is a real scheduling leak). Four jobs on two workers, so at
	@# --jobs 2 some wait in the run queue. A traced --jobs 2 run must
	@# emit Chrome trace_event JSON that parses (trace-summary exit 0)
	@# with the pool counters, and its manifest must diff clean against
	@# the untraced --jobs 2 run: spans never perturb results.
	@tmp=$$(mktemp -d); \
	printf '%s\n' \
	  '{"schema":"sassi-campaign/1","name":"ci-smoke","seed":2025,"jobs":[' \
	  ' {"workload":"parboil/sgemm","variant":"small","kind":"inject","injections":4},' \
	  ' {"workload":"parboil/spmv","variant":"small","kind":"run"},' \
	  ' {"workload":"rodinia/nn","kind":"run"},' \
	  ' {"workload":"parboil/spmv","variant":"small","kind":"inject","injections":2}]}' \
	  > $$tmp/campaign.json; \
	dune exec bin/sassi_run.exe -- campaign $$tmp/campaign.json --jobs 1 \
	  --manifest $$tmp/j1.json > /dev/null; \
	dune exec bin/sassi_run.exe -- campaign $$tmp/campaign.json --jobs 2 \
	  --manifest $$tmp/j2.json > /dev/null; \
	dune exec bin/sassi_run.exe -- compare $$tmp/j1.json $$tmp/j2.json \
	  || { echo "ci: --jobs 2 campaign diverged from --jobs 1"; rm -rf $$tmp; exit 1; }; \
	dune exec bin/sassi_run.exe -- campaign $$tmp/campaign.json --jobs 2 \
	  --host-trace $$tmp/host.json --host-metrics $$tmp/pool.prom \
	  --manifest $$tmp/traced.json > /dev/null; \
	dune exec bin/sassi_run.exe -- trace-summary $$tmp/host.json > /dev/null \
	  || { echo "ci: --host-trace output is not a loadable Chrome trace"; rm -rf $$tmp; exit 1; }; \
	grep -q '^sassi_pool_tasks_total' $$tmp/pool.prom \
	  || { echo "ci: --host-metrics missing pool counters"; rm -rf $$tmp; exit 1; }; \
	dune exec bin/sassi_run.exe -- compare $$tmp/j2.json $$tmp/traced.json \
	  || { echo "ci: traced campaign diverged from untraced"; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "ci: parallel campaign determinism and host-trace checks passed"
	@# Serve gate: boot the daemon on an ephemeral port, POST a
	@# campaign over HTTP, require (a) a live /metrics scrape whose
	@# request counter is strictly monotonic across scrapes, and (b) a
	@# served manifest byte-identical to the CLI run of the same
	@# campaign file; then a clean POST /shutdown exit.
	@tmp=$$(mktemp -d); \
	printf '%s\n' \
	  '{"schema":"sassi-campaign/1","name":"ci-serve","seed":2025,"jobs":[' \
	  ' {"workload":"parboil/spmv","variant":"small","kind":"inject","injections":2},' \
	  ' {"workload":"parboil/spmv","variant":"small","kind":"run"}]}' \
	  > $$tmp/campaign.json; \
	dune exec bin/sassi_run.exe -- serve --port 0 --jobs 2 > $$tmp/serve.log 2>&1 & \
	pid=$$!; \
	port=""; \
	for i in $$(seq 1 100); do \
	  port=$$(sed -n 's/.*listening on http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' $$tmp/serve.log); \
	  [ -n "$$port" ] && break; sleep 0.1; \
	done; \
	[ -n "$$port" ] || { echo "ci: serve never reported a port"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	curl -sf -X POST --data-binary @$$tmp/campaign.json http://127.0.0.1:$$port/jobs > /dev/null \
	  || { echo "ci: POST /jobs failed"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	state=""; \
	for i in $$(seq 1 600); do \
	  state=$$(curl -sf http://127.0.0.1:$$port/jobs/job-1 | grep -o '"state":"[a-z]*"'); \
	  [ "$$state" = '"state":"done"' ] && break; sleep 0.1; \
	done; \
	[ "$$state" = '"state":"done"' ] \
	  || { echo "ci: served job never finished ($$state)"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	curl -sf http://127.0.0.1:$$port/metrics > $$tmp/m1.prom; \
	curl -sf http://127.0.0.1:$$port/metrics > $$tmp/m2.prom; \
	c1=$$(sed -n 's/^sassi_serve_requests_total{endpoint="metrics"} //p' $$tmp/m1.prom); \
	c2=$$(sed -n 's/^sassi_serve_requests_total{endpoint="metrics"} //p' $$tmp/m2.prom); \
	[ -n "$$c1" ] && [ -n "$$c2" ] && [ "$$c2" -gt "$$c1" ] \
	  || { echo "ci: /metrics request counter not monotonic ($$c1 -> $$c2)"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	grep -q '^sassi_pool_tasks_total' $$tmp/m1.prom \
	  || { echo "ci: live scrape missing pool counters"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	curl -sf http://127.0.0.1:$$port/jobs/job-1/manifest > $$tmp/served.json \
	  || { echo "ci: GET manifest failed"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	dune exec bin/sassi_run.exe -- campaign $$tmp/campaign.json --jobs 2 \
	  --manifest $$tmp/cli.json > /dev/null; \
	cmp -s $$tmp/served.json $$tmp/cli.json \
	  || { echo "ci: served manifest differs from CLI manifest"; kill $$pid; rm -rf $$tmp; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:$$port/shutdown > /dev/null; \
	wait $$pid \
	  || { echo "ci: serve exited non-zero after shutdown"; rm -rf $$tmp; exit 1; }; \
	rm -rf $$tmp; \
	echo "ci: serve gate passed (port $$port, served manifest == CLI manifest)"

# Static memory predictions vs the machine: per-site bank-conflict
# degree and coalesced line counts, audited in-simulator; writes
# BENCH_analysis_mem.json. Fails on any exact-site mismatch.
bench-analysis-mem: build
	dune exec bench/main.exe -- analysis-mem

# The repository benchmark (perfbench/README.md): every workload of
# BENCHMARK.json, untraced, for its run_seconds. Each run's last line
# is its JSON result: `correct`, `attempted`, `failed` and `metrics`.
perfbench:
	secs=$$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json); \
	for w in plain-sim profiled-sim served-campaign; do \
	  sh perfbench/run.sh --workload $$w --seed 1 --seconds $$secs \
	    --trace 0 || exit 1; \
	done

# Alternating parent/change pairs on one perfbench workload, e.g.
# `make perfbench-pairs PARENT=HEAD~1 WORKLOAD=profiled-sim PAIRS=10`
# (scripts/perfbench-pairs.sh says what it runs and prints).
PARENT ?= HEAD~1
PAIRS ?= 10
perfbench-pairs:
	sh scripts/perfbench-pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

profile: build
	dune exec bin/sassi_run.exe -- run $(WORKLOAD) --profile

# Histogram/series summary for one workload, e.g.
# `make telemetry WORKLOAD=parboil/spmv`.
telemetry: build
	dune exec bin/sassi_run.exe -- run $(WORKLOAD) --telemetry

clean:
	dune clean
