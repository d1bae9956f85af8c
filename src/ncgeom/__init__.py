"""Discrete noncommutative geometry: digraph calculi, their matrix
representations, Connes distances, lattice sigma-models and Toda flows."""
