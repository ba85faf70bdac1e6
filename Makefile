# ASAP reproduction - common entry points

PYTHON ?= python

.PHONY: install test test-fast lint bench figures examples clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/unit tests/schemes -q

# Style + type gate, then the repo's own workload linter (ruff and mypy
# are optional-dependency extras; skip gracefully where not installed).
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src/repro/analysis tests/analysis benchmarks; \
	else \
		echo "ruff not installed (pip install -e .[lint]); skipping style check"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed (pip install -e .[lint]); skipping type check"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.analysis lint --json lint-report.json
	PYTHONPATH=src $(PYTHON) -m repro.analysis races --json races-report.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

figures:
	$(PYTHON) -m repro.harness.run all

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
