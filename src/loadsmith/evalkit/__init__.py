"""Evaluation harness: scenarios, deterministic checks, judges, pass^k."""
