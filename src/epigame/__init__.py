"""Exact engine for iterated strategy elimination and epistemic game analysis."""
