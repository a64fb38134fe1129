# Convenience targets for the Horus reproduction.

PYTHON ?= python

.PHONY: test test-pure bench bench-full bench-e2e experiments experiments-full examples lint lint-deep typecheck clean

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

# Tier-1 with numpy import-blocked in every Python process it starts, so
# the pure-Python kernels run as on a numpy-less install (CI's pure-python
# leg); tests/purepython/sitecustomize.py installs the blocking finder and
# then runs the sitecustomize it shadows, if the interpreter has one.
test-pure:
	PYTHONPATH=tests/purepython:src $(PYTHON) -m pytest -x -q

# reprolint is stdlib-only and always runs; ruff/mypy are optional dev tools
# (CI installs them) and are skipped with a notice when absent locally.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint src tests
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (CI runs it)"; \
	fi

# The cross-module dataflow rules (F1-F5) on top of the fast rules; still
# stdlib-only, just slower (whole-project call graph + taint fixed point).
lint-deep:
	PYTHONPATH=src $(PYTHON) -m repro.lint --deep src tests

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping (CI runs it)"; \
	fi

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-full:
	REPRO_BENCH_SCALE=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark: all four workloads, each in its own process,
# with pinned output digests (bench_e2e/README.md).
bench-e2e:
	$(PYTHON) bench_e2e/e2e.py

experiments:
	$(PYTHON) -m repro.experiments.runner

experiments-full:
	$(PYTHON) -m repro.experiments.runner --scale 1 --output results

examples:
	for script in examples/*.py; do \
		echo "== $$script"; $(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
