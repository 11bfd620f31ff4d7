#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through (see README.md in this directory).  Run it from the
# repository root; it fails, printing no result, where the sources are
# missing.  Dune's shared cache stays off so the build writes only under
# _build.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet ./bench/e2e/main.exe
exec ./_build/default/bench/e2e/main.exe "$@"
