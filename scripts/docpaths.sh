#!/bin/sh
# Fails when a document names a package or file that is not in the tree:
# every backticked path that starts with internal/ or cmd/ in README.md,
# DESIGN.md, EXPERIMENTS.md, PROTOCOL.md and docs/*.md must exist (a Go
# `internal/pkg.Name` reference needs internal/pkg).
# CHANGES.md and ROADMAP.md record history and plans, and benchmark/ is
# its own module; none of them is checked.
# Run from anywhere inside the repository.
cd "$(git rev-parse --show-toplevel)" || exit 1
missing=$(
	for doc in README.md DESIGN.md EXPERIMENTS.md PROTOCOL.md docs/*.md; do
		[ -f "$doc" ] || continue
		grep -noE '`(internal|cmd)/[A-Za-z0-9_./-]*' "$doc" |
			while IFS=: read -r line path; do
				path=${path#?}
				path=${path%.}
				[ -e "$path" ] || [ -e "${path%.*}" ] || echo "$doc:$line: \`$path\`"
			done
	done
)
if [ -n "$missing" ]; then
	echo "documents name paths that do not exist:" >&2
	echo "$missing" >&2
	exit 1
fi
