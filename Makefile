.PHONY: check check-par loc bench bench-par bench-io bench-space bench-frontier bench-serve bench-multicore bench-hotpath bench-lsm serve-smoke chaos-smoke fault-matrix perfbench-selftest golden clean

check:
	dune build @all
	dune runtest

# Re-run the whole test suite with the domain pool actually engaged.
check-par:
	PTI_DOMAINS=4 dune runtest --force

# Size of the program: lines of OCaml and C under lib/ and bin/.
loc:
	@find lib bin -name '*.ml' -o -name '*.mli' -o -name '*.c' | xargs cat | wc -l

bench:
	dune exec bench/main.exe

bench-par:
	dune exec bench/main.exe -- par

# Persistence: save time, file size and load-to-first-query latency of
# the mmap open (checksummed and ~verify:false); writes BENCH_IO.json.
bench-io:
	dune exec bench/main.exe -- io

# Space–latency frontier: packed vs succinct PTI-ENGINE-4 containers
# (words/position, open time, query latency on the same workload,
# every succinct answer verified against the packed twin);
# writes BENCH_SPACE.json. bench-frontier is the same experiment under
# its frontier alias.
bench-space:
	dune exec bench/main.exe -- space

bench-frontier:
	dune exec bench/main.exe -- frontier

# Serving: loadgen against the TCP daemon — heap vs mmap engines at
# concurrency 1/8/64 plus the workers x concurrency multicore sweep;
# writes BENCH_SERVE.json (every reply verified byte-for-byte, with
# affinity_cores/raw_processor_count so single-core numbers are not
# mistaken for scaling).
bench-serve:
	dune exec bench/main.exe -- serve

# Just the multicore scaling sweep (workers 1/2/4/8 x concurrency
# 1/8/64/256, mmap backend, verified replies); writes BENCH_SERVE.json.
bench-multicore:
	dune exec bench/main.exe -- multicore

# Just the zero-allocation/result-cache profile: a repetitive
# pattern-pool workload at concurrency 8 against packed and succinct
# mmap containers — one row with the result cache off, a cold + hot
# pair with it on — every reply verified byte-for-byte and each row
# recording the server's minor-heap words per request next to the
# pre-PR pooling baseline; writes the "hotpath" rows of
# BENCH_SERVE.json (bench-serve includes them too).
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# Dynamic corpus (DESIGN.md §15): scatter-gather query latency as the
# same document set is cut into 1/2/4/8 sealed segments (every cut
# verified to answer the workload identically, bit for bit) plus the
# throughput of force-compacting the 8-segment corpus back to one; each row carries
# peak_rss_bytes so the sweep doubles as the space-amortisation
# profile. Writes BENCH_LSM.json.
bench-lsm:
	dune exec bench/main.exe -- lsm

# End-to-end daemon smoke: gen -> build -> serve -> loadgen --check.
serve-smoke:
	dune build bin/pti.exe
	scripts/serve_smoke.sh

# Fault-injection smoke: abort/ENOSPC mid-save leave the old index
# byte-identical; kill -9 under load + restart is absorbed by
# loadgen --retry with every reply verified; WAL crash/replay/torn-tail
# recovery; scrub quarantine + read-repair; serve flag validation.
chaos-smoke:
	dune build bin/pti.exe
	scripts/chaos_smoke.sh

# Seeded probabilistic fault matrix: @p:P:SEED triggers across every
# storage.* and wal.* failpoint while the corpus CLI churns; the
# corpus must come out undegraded and scrub-clean.
# Override: FAULT_MATRIX_SEED / FAULT_MATRIX_P / FAULT_MATRIX_ROUNDS.
fault-matrix:
	dune build bin/pti.exe
	scripts/fault_matrix.sh

# The live-daemon benchmark's own self-test (perfbench/selftest.py):
# every workload at a tiny size, reply corruption caught, and a
# checkout without the program refused. About a minute.
perfbench-selftest:
	python3 perfbench/selftest.py

# Golden container digests: five containers built from fixed `pti gen`
# inputs must match test/golden/containers.sha256 byte for byte.
golden:
	dune build bin/pti.exe
	scripts/golden_build.sh

clean:
	dune clean
