"""Movement classification and jerk-based smoothness assessment.

Submodules
----------
kinematics : tri-axial series container, derivatives, windowing
dataset    : recordings, file formats, splits, augmentation
nn         : float64 network engine (layers, loss, Adam, grad check)
classifier : architecture assembly, training loop, evaluation
smoothness : jerk/squared-jerk statistics, cohort and session reports
synth      : deterministic synthetic movement generator
cli        : command-line pipeline
"""

from importlib import resources

__version__ = "0.1.0"


def bundled_table(name: str):
    """Path of a reference table shipped with the package.

    Available names: cohort_jerk, cohort_squared_jerk, patient_100,
    patient_101, patient_102, patient_103.
    """
    path = resources.files("kinemotion") / "tables" / f"{name}.csv"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled table named {name!r}")
    return path
