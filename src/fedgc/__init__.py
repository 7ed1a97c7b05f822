"""Federated embedding training with private per-client classifier heads.

Clients share a feature-extractor backbone but keep their class-embedding
columns local; the server optionally applies a gradient-correction step on
the stacked embedding matrix to push different clients' classes apart.
"""
