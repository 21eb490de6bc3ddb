"""AST lint rules: one positive and one negative case per rule."""

from repro.analysis.astlint import lint_source, lint_tree

KERNEL_PATH = "src/repro/pim/kernels/fake.py"
OTHER_PATH = "src/repro/core/fake.py"


def _rules(source, path):
    return [f.rule for f in lint_source(source, path)]


class TestKernelTraffic:
    def test_untracked_access_flagged(self):
        src = (
            "def run_fake(x):\n"
            "    return x[0] + x[1]\n"
        )
        assert "kernel-traffic" in _rules(src, KERNEL_PATH)

    def test_charged_access_clean(self):
        src = (
            "def run_fake(x):\n"
            "    t = MemoryTraffic(sequential_read=float(x.nbytes))\n"
            "    return x[0], t\n"
        )
        assert "kernel-traffic" not in _rules(src, KERNEL_PATH)

    def test_cost_delegation_counts_as_charging(self):
        src = (
            "def run_fake(x):\n"
            "    return x[0], fake_cost(len(x), x.nbytes)\n"
        )
        assert "kernel-traffic" not in _rules(src, KERNEL_PATH)

    def test_declared_pure_helper_exempt(self):
        src = (
            "def gather_fake(x):\n"
            '    """Functional core. No cost accounting — callers\n'
            '    charge fake_cost separately."""\n'
            "    return x[0] + x[1]\n"
        )
        assert "kernel-traffic" not in _rules(src, KERNEL_PATH)

    def test_undeclared_pure_helper_still_flagged(self):
        src = (
            'def gather_fake(x):\n'
            '    """Some helper."""\n'
            "    return x[0] + x[1]\n"
        )
        assert "kernel-traffic" in _rules(src, KERNEL_PATH)

    def test_rule_scoped_to_kernel_dir(self):
        src = "def f(x):\n    return x[0]\n"
        assert "kernel-traffic" not in _rules(src, OTHER_PATH)


class TestRngBypass:
    def test_direct_np_random_flagged(self):
        src = "import numpy as np\nr = np.random.default_rng(0)\n"
        findings = lint_source(src, OTHER_PATH)
        hits = [f for f in findings if f.rule == "rng-bypass"]
        assert len(hits) == 1
        assert hits[0].line == 2

    def test_ensure_rng_clean(self):
        src = (
            "from repro.utils.rng import ensure_rng\n"
            "r = ensure_rng(0)\n"
        )
        assert "rng-bypass" not in _rules(src, OTHER_PATH)

    def test_rng_module_itself_exempt(self):
        src = "import numpy as np\nr = np.random.default_rng(0)\n"
        assert _rules(src, "src/repro/utils/rng.py") == []


class TestFloatInIntegerPath:
    def test_astype_float_flagged(self):
        src = "def run_fake(x):\n    return x.astype('float32')\n"
        assert "float-in-integer-path" in _rules(src, KERNEL_PATH)

    def test_dtype_kwarg_flagged(self):
        src = (
            "import numpy as np\n"
            "def run_fake(n):\n"
            "    return np.zeros(n, dtype=np.float64)\n"
        )
        assert "float-in-integer-path" in _rules(src, KERNEL_PATH)

    def test_int_dtypes_clean(self):
        src = "def run_fake(x):\n    return x.astype('int32')\n"
        assert "float-in-integer-path" not in _rules(src, KERNEL_PATH)

    def test_floats_fine_outside_dpu_paths(self):
        src = "def f(x):\n    return x.astype('float32')\n"
        assert "float-in-integer-path" not in _rules(src, OTHER_PATH)


class TestMutableDefault:
    def test_list_default_flagged(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = []\n"
        )
        assert "mutable-default" in _rules(src, OTHER_PATH)

    def test_field_default_mutable_flagged(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: dict = field(default={})\n"
        )
        assert "mutable-default" in _rules(src, OTHER_PATH)

    def test_default_factory_clean(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = field(default_factory=list)\n"
        )
        assert "mutable-default" not in _rules(src, OTHER_PATH)

    def test_plain_class_exempt(self):
        src = "class C:\n    xs = []\n"
        assert "mutable-default" not in _rules(src, OTHER_PATH)


class TestUnchargedKernelCall:
    def test_uncharged_run_flagged(self):
        src = (
            "def execute(dpu, q, c):\n"
            "    out, cost = run_residual(q, c)\n"
            "    return out\n"
        )
        findings = lint_source(src, OTHER_PATH)
        hits = [f for f in findings if f.rule == "uncharged-kernel-call"]
        assert len(hits) == 1
        assert "run_residual" in hits[0].message

    def test_charged_run_clean(self):
        src = (
            "def execute(self, dpu, q, c):\n"
            "    out, cost = run_residual(q, c)\n"
            "    self._charge(dpu, cost)\n"
            "    return out\n"
        )
        assert "uncharged-kernel-call" not in _rules(src, OTHER_PATH)

    def test_method_call_spelling_counts(self):
        src = (
            "def execute(self, dpu, q, c):\n"
            "    out, cost = kernels.run_lut_build(q, c)\n"
            "    system.charge(dpu, cost)\n"
            "    return out\n"
        )
        assert "uncharged-kernel-call" not in _rules(src, OTHER_PATH)

    def test_kernel_package_exempt(self):
        src = (
            "def run_fake(q, c):\n"
            "    return run_residual(q, c)\n"
        )
        assert "uncharged-kernel-call" not in _rules(src, KERNEL_PATH)

    def test_analysis_package_exempt(self):
        src = (
            "def measure(shape):\n"
            "    _, cost = run_distance_scan(shape, shape)\n"
            "    return cost\n"
        )
        path = "src/repro/analysis/fake.py"
        assert "uncharged-kernel-call" not in _rules(src, path)

    def test_backend_package_exempt(self):
        src = (
            "def reference(res, books, sq):\n"
            "    luts, _ = run_lut_build(res, books, sq)\n"
            "    return luts\n"
        )
        path = "src/repro/pim/backend/fake.py"
        assert "uncharged-kernel-call" not in _rules(src, path)


class TestRegistryBypass:
    def test_direct_scan_call_flagged(self):
        src = (
            "def sneaky(luts, codes):\n"
            "    return scan_distances(luts, codes)\n"
        )
        assert "kernel-registry-bypass" in _rules(src, OTHER_PATH)

    def test_stacked_variant_flagged(self):
        src = (
            "def sneaky(jobs):\n"
            "    return kernels.scan_distances_stacked(jobs.luts, jobs.codes)\n"
        )
        assert "kernel-registry-bypass" in _rules(src, OTHER_PATH)

    def test_staged_lut_build_flagged(self):
        src = (
            "def sneaky(res, books, sq):\n"
            "    luts, cost = kernels.run_lut_build(res, books, sq)\n"
            "    return luts\n"
        )
        assert "kernel-registry-bypass" in _rules(src, OTHER_PATH)

    def test_registry_scan_clean(self):
        src = (
            "def fine(luts, codes):\n"
            "    backend = resolve_backend('auto')\n"
            "    return backend.scan(luts, codes)\n"
        )
        assert "kernel-registry-bypass" not in _rules(src, OTHER_PATH)

    def test_kernel_package_exempt(self):
        src = (
            "def run_fused(luts, codes):\n"
            "    return scan_distances(luts, codes)\n"
        )
        assert "kernel-registry-bypass" not in _rules(src, KERNEL_PATH)

    def test_backend_package_exempt(self):
        src = (
            "def scan(self, luts, codes):\n"
            "    return scan_distances(luts, codes)\n"
        )
        path = "src/repro/pim/backend/fake.py"
        assert "kernel-registry-bypass" not in _rules(src, path)

    def test_seeded_fixture_trips_exactly_once(self):
        import os

        from repro.analysis.astlint import lint_file

        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "broken_backend_bypass.py"
        )
        hits = sorted(
            (
                f for f in lint_file(fixture)
                if f.rule == "kernel-registry-bypass"
            ),
            key=lambda f: f.line,
        )
        # One finding per call site: the scan and the LUT build.
        assert len(hits) == 2
        assert len({f.line for f in hits}) == 2
        assert "scan_distances" in hits[0].message
        assert "run_lut_build" in hits[1].message


class TestEntryPoints:
    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", OTHER_PATH)
        assert [f.rule for f in findings] == ["syntax-error"]

    def test_shipped_package_is_clean(self):
        import repro
        import os

        root = os.path.dirname(os.path.abspath(repro.__file__))
        errors = [f for f in lint_tree(root) if f.severity >= 30]
        assert errors == []
