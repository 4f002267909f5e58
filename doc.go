// Package repro is a from-scratch Go reproduction of "Boosting Data Center
// Performance via Intelligently Managed Multi-backend Disaggregated Memory"
// (SC 2024): the xDM multi-backend far-memory management system, rebuilt on
// a deterministic discrete-event simulation of the full hardware/OS stack it
// needs (PCIe fabric, far-memory devices, paging and swap, VMs, cluster
// scheduling).
//
// See README.md for the architecture tour, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The root-level benchmarks in bench_test.go
// regenerate every table and figure of the paper's evaluation; cmd/xdmsim
// does the same as a standalone binary.
package repro
