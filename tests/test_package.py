"""The package's lazy exports, the lazily loaded sweep pool and the CLI's
BLAS thread defaults."""
import importlib
import json
import subprocess
import sys

import pytest

import oficast

#: The public names, by the submodule that defines them.
PUBLIC = {
    "data_io": [
        "CountSeries", "DataFormatError", "SyntheticSpec",
        "chronological_split", "generate_synthetic", "load_counts_csv",
        "write_counts_csv",
    ],
    "ofi_signal": [
        "OfiParams", "Signal", "clamp_ofi", "ofi", "signal",
    ],
    "var_model": [
        "FitDiagnostics", "RankDeficiencyError", "VarModel", "build_lag_matrix",
        "fit_var", "load_var", "residuals", "save_var", "summary",
    ],
    "neural_net": [
        "FnnModel", "FnnTopology", "TrainConfig", "TrainingTrace", "backward",
        "forward", "gradient_check", "load_fnn", "loss", "save_fnn", "train",
    ],
    "hybrid": [
        "ModelBundle", "PipelineConfig", "Predictions", "evaluate_on_holdout",
        "fit_fnn_only", "fit_hybrid", "fit_var_only", "load_bundle", "predict",
        "save_bundle", "zero_residual_head",
    ],
    "evaluation": [
        "EvalReport", "evaluate_records", "intensity_metrics", "mae", "mse",
        "r_squared", "render_comparison",
    ],
    "sweep": [
        "SweepConfig", "SweepResult", "SweepSpace", "enumerate_grid", "lhs_sample",
        "run_sweep",
    ],
}

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(code, env):
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy(oficast_env):
    code = (
        "import sys, oficast\n"
        "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'oficast'))))\n"
        "print(oficast.fit_hybrid.__module__, oficast.sweep.__name__)"
    )
    assert _child(code, oficast_env) == "['oficast']\noficast.hybrid oficast.sweep\n"


def test_public_names_are_the_submodules_objects():
    names = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(names) == 56
    assert oficast.__all__ == sorted(names)
    assert set(names) <= set(dir(oficast))
    for module, module_names in PUBLIC.items():
        sub = importlib.import_module(f"oficast.{module}")
        assert getattr(oficast, module) is sub
        for name in module_names:
            assert getattr(oficast, name) is getattr(sub, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        oficast.no_such_name
    with pytest.raises(ImportError):
        from oficast import no_such_name  # noqa: F401


#: Prints the thread variables as they stood when numpy began to load.
_THREADS_AT_NUMPY_IMPORT = f"""
import json, os, sys
seen = {{}}
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in {THREAD_VARS!r})
sys.meta_path.insert(0, Probe())
import oficast.cli
print(json.dumps(seen))
"""


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_cli_sets_one_blas_thread_before_numpy_loads(oficast_env, preset, expected):
    env = {k: v for k, v in oficast_env.items() if k not in THREAD_VARS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    seen = json.loads(_child(_THREADS_AT_NUMPY_IMPORT, env))
    assert seen == {
        "OPENBLAS_NUM_THREADS": expected, "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }


#: Prints the process-pool modules loaded after importing the CLI, after a
#: one-worker sweep and after a two-worker sweep, then whether the two
#: sweeps' results (runtimes aside) are equal.
_POOL_MODULES_LOADED = """
import dataclasses, sys
import oficast.cli
from oficast.data_io import SyntheticSpec, generate_synthetic
from oficast.neural_net import TrainConfig
from oficast.sweep import SweepConfig, run_sweep

def loaded():
    print(sorted(m for m in ("multiprocessing", "concurrent.futures.process")
                 if m in sys.modules))

def sweep(workers):
    results = run_sweep(
        [SweepConfig(1, (4,), "relu", "adam"), SweepConfig(2, (3,), "tanh", "sgd")],
        [("syn", generate_synthetic(SyntheticSpec(length=90, seed=100)).counts)],
        master_seed=5, train_template=TrainConfig(epochs=2), workers=workers,
    )
    loaded()
    return [repr(dataclasses.replace(r, runtime_s=0.0)) for r in results]

loaded()
print(sweep(1) == sweep(2))
"""


def test_only_a_pool_sweep_loads_multiprocessing(oficast_env):
    assert _child(_POOL_MODULES_LOADED, oficast_env) == (
        "[]\n[]\n['concurrent.futures.process', 'multiprocessing']\nTrue\n"
    )
