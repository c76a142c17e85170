#!/bin/sh
# Starts dbpl_serve on an ephemeral port over a fresh directory and a
# dbpl_follow tailing it, sends each SIGTERM, and requires both to shut
# down cleanly (exit status 0).
#
# Usage: serve_tools_sigterm_test.sh <dbpl_serve> <dbpl_follow>
set -u
serve_bin=$1
follow_bin=$2
dir=$(mktemp -d)
trap 'kill -9 "$serve_pid" "$follow_pid" 2>/dev/null; rm -rf "$dir"' EXIT
serve_pid=
follow_pid=

# Waits up to 10 s for a line matching $2 in log file $1.
wait_for() {
  i=0
  until grep -q "$2" "$1"; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "timed out waiting for '$2' in $1:" >&2
      cat "$1" >&2
      return 1
    fi
    sleep 0.1
  done
}

"$serve_bin" --dir "$dir" --port 0 2> "$dir/serve.log" &
serve_pid=$!
wait_for "$dir/serve.log" "listening on" || exit 1
port=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$dir/serve.log")

"$follow_bin" --primary "127.0.0.1:$port" --poll-ms 20 2> "$dir/follow.log" &
follow_pid=$!
wait_for "$dir/follow.log" "bootstrapped" || exit 1

kill -TERM "$follow_pid"
wait "$follow_pid"
follow_status=$?
follow_pid=
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_status=$?
serve_pid=

cat "$dir/serve.log" "$dir/follow.log"
echo "dbpl_follow exit $follow_status, dbpl_serve exit $serve_status"
[ "$follow_status" -eq 0 ] && [ "$serve_status" -eq 0 ]
