#!/bin/sh
# Prints the repository's code size as ROADMAP's LOC success metric
# defines it: non-test Go lines outside benchmark/ that are neither blank
# nor comment-only. Run from anywhere inside the repository.
cd "$(git rev-parse --show-toplevel)" || exit 1
git ls-files '*.go' | grep -v '_test.go$' | grep -v '^benchmark/' | xargs cat | grep -vcE '^\s*(//.*)?$'
