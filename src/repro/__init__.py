"""Mobius reproduction: fine-tuning large-scale models on commodity GPU servers.

A full software reproduction of "Mobius: Fine Tuning Large-Scale Models on
Commodity GPU Servers" (Feng et al., ASPLOS 2023).  The package provides:

* ``repro.hardware`` — GPU and PCIe/NVLink topology models;
* ``repro.sim`` — a deterministic discrete-event simulator with
  bandwidth-shared links (the execution substrate);
* ``repro.models`` — analytic transformer cost models and the profiler;
* ``repro.core`` — the Mobius pipeline, the boundary-search partition
  algorithm and cross mapping (the paper's contribution);
* ``repro.solver`` — the literal partition MIP's model builder and HiGHS
  call, a test-suite oracle for the partition search;
* ``repro.baselines`` — GPipe and DeepSpeed (ZeRO-3 offload and pipeline);
* ``repro.analysis`` — traffic, bandwidth-CDF, overlap and price analyses;
* ``repro.autograd`` / ``repro.nn`` / ``repro.training`` — a numpy autodiff
  engine and transformer LM used for the convergence experiment;
* ``repro.experiments`` — harnesses regenerating every table and figure.
"""

__version__ = "1.0.0"
