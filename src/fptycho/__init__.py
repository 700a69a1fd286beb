"""Fourier ptychography toolkit: simulation plus two reconstruction engines.

A thin numpy core; the per-image step's small kernels live in
``fptycho.kernels``. Public surface:

* ``field``: DFT/windowing conventions every module shares
* ``optics``: config, CTF, Zernike pupil basis, illumination geometry
* ``simulate``: forward captures with noise/saturation
* ``epie``: alternating-projection baseline solver
* ``pgnn``: gradient-descent solver with alternating object/pupil stages
* ``io`` / ``evaluate`` / ``cli``: formats, metrics, command line
"""

from .epie import (EpieConfig, ap_project, epie_step, measured_amplitudes,
                   run_epie)
from .errors import (DegenerateField, DegeneratePupil, DegenerateReference,
                     DimensionMismatch, FormatError, FptychoError,
                     InvalidModeCount, ManifestError, NumericalError,
                     WindowOutOfBounds)
from .evaluate import Metrics, global_phase_align, metrics, passband_rel_err_amp
from .io import Dataset, read_dataset, write_dataset
from .optics import (Illumination, OpticalConfig, ZernikeBasis, defocus_phase,
                     illumination_offsets, make_ctf, zernike_basis)
from .pgnn import PgnnConfig, PgnnModel, run_pgnn
from .simulate import GroundTruth, SimOptions, forward_capture, simulate_dataset

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DegenerateField", "DegeneratePupil", "DegenerateReference",
    "DimensionMismatch", "EpieConfig", "FormatError", "FptychoError",
    "GroundTruth", "Illumination", "InvalidModeCount", "ManifestError",
    "Metrics", "NumericalError", "OpticalConfig", "PgnnConfig", "PgnnModel",
    "SimOptions", "WindowOutOfBounds", "ZernikeBasis", "ap_project",
    "defocus_phase", "epie_step", "forward_capture", "global_phase_align",
    "illumination_offsets", "make_ctf", "measured_amplitudes", "metrics",
    "passband_rel_err_amp", "read_dataset", "run_epie", "run_pgnn",
    "simulate_dataset", "write_dataset", "zernike_basis",
]
