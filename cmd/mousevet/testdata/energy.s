# Energy forward progress: lint with -cap 1e-12 -rules wce to model an
# energy buffer too small to ever finish an instruction (Section I's
# non-termination hazard).
ACT * R 0 1024 1
PRE0 1
NAND2 0 2 1
