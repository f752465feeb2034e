"""Physical constants (CODATA 2018, SI units), compiled in for reproducibility."""

K_B = 1.380649e-23                     # J/K, exact
HBAR = 1.054571817e-34                 # J s
HARTREE = 4.3597447222071e-18          # J
ATOMIC_TIME = HBAR / HARTREE           # s, = hbar/E_H by construction
MU_B = 9.2740100783e-24                # J/T
ALPHA_FS = 7.2973525693e-3             # fine-structure constant
ATOMIC_MASS_UNIT = 1.66053906660e-27   # kg
