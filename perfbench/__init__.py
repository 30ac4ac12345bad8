"""Campaign benchmark for the P2P-MPI reproduction (see run.py)."""
