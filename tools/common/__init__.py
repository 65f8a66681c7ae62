# Shared stdlib-only helpers for the repo's Python tooling. Keep this
# package dependency-free: every tool must run on a bare python3 with no
# site-packages.
