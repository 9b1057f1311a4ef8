// Package repro is a from-scratch Go reproduction of "FSMoE: A Flexible
// and Scalable Training System for Sparse Mixture-of-Experts Models"
// (Pan et al., ASPLOS 2025).
//
// The public API lives in repro/fsmoe; the benchmark harness regenerating
// every table and figure of the paper's evaluation lives in
// cmd/fsmoe-bench and in the root-level bench_test.go. See README.md for
// the package map and how to run everything, and PAPER.md for the
// paper's abstract.
package repro
