# load(file, tbl) reads the flat "name": number pairs of a BENCH_<n>.json
# trajectory point into tbl. scripts/bench.sh (the delta table) and
# scripts/bench_regress.sh (the regression gate) prepend this file to
# their awk programs.
function load(file, tbl,    line, k, v) {
    while ((getline line < file) > 0) {
        if (match(line, /"[a-z_0-9]+": *[0-9.eE+-]+/)) {
            k = line; sub(/^ *"/, "", k); sub(/".*$/, "", k)
            v = line; sub(/^[^:]*: */, "", v); sub(/,.*$/, "", v)
            tbl[k] = v + 0
        }
    }
    close(file)
}
