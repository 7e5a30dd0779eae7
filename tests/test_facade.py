"""Tests for the top-level public API facade (import repro)."""

import subprocess
import sys

import pytest

import repro


class TestSurface:
    def test_all_is_sorted_and_complete(self):
        assert repro.__all__[0] == "__version__"
        body = repro.__all__[1:]
        assert body == sorted(body)
        assert set(body) == set(repro._EXPORTS)

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_dir_covers_all_without_resolving(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name


class TestIdentity:
    """Facade names are the canonical objects, not copies."""

    def test_core_names(self):
        from repro.core.question_analysis import analyze_cohort

        assert repro.analyze_cohort is analyze_cohort

    def test_author_alias(self):
        from repro.exams.authoring import ExamBuilder

        assert repro.author is ExamBuilder
        assert repro.ExamBuilder is ExamBuilder

    def test_build_package_alias(self):
        from repro.scorm.package import package_exam

        assert repro.build_package is package_exam
        assert repro.package_exam is package_exam

    def test_obs_is_the_module(self):
        import repro.obs as obs_module

        assert repro.obs is obs_module

    def test_resolution_is_cached(self):
        first = repro.Lms
        assert "Lms" in vars(repro)  # cached into module globals
        assert repro.Lms is first


class TestLaziness:
    def test_import_repro_loads_no_layers(self):
        code = (
            "import sys, repro\n"
            "heavy = [m for m in sys.modules if m.startswith('repro.')]\n"
            "print(','.join(sorted(heavy)) or 'none')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "none"

    def test_access_loads_only_the_needed_layer(self):
        code = (
            "import sys, repro\n"
            "repro.GroupSplit\n"
            "assert any(m == 'repro.core.grouping' for m in sys.modules)\n"
            "assert not any(m.startswith('repro.lms') for m in sys.modules)\n"
            "assert not any(m.startswith('repro.scorm') for m in sys.modules)\n"
            "print('ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "ok"

    def test_no_module_imports_scipy(self):
        # every serving process imports repro.core; scipy there cost
        # each of them ~1 s of start-up and ~55 MB of RSS
        code = (
            "import importlib, pkgutil, sys, repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(info.name)\n"
            "loaded = [m for m in sys.modules\n"
            "          if m == 'scipy' or m.startswith('scipy.')]\n"
            "print(len(loaded), ','.join(sorted(loaded)[:5]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "0"


class TestEndToEnd:
    def test_facade_only_pipeline(self):
        exam = repro.classroom_exam(5)
        data = repro.simulate_sitting_data(
            exam,
            repro.classroom_parameters(5),
            repro.make_population(12, seed=3),
            seed=4,
        )
        analysis = repro.analyze_cohort(
            data.responses, data.specs, split=repro.GroupSplit()
        )
        assert len(analysis.questions) == 5
        report = repro.build_report(exam.title, analysis)
        assert exam.title in report.render()

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        pyproject = (
            Path(__file__).resolve().parents[1] / "pyproject.toml"
        ).read_text(encoding="utf-8")
        declared = re.search(
            r'^version = "([^"]+)"', pyproject, re.MULTILINE
        ).group(1)
        assert repro.__version__ == declared
