"""End-to-end and per-layer benchmark of riemgrid; see README.md in this directory."""
