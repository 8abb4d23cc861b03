#!/usr/bin/env bash
# Runs each case of a googletest binary that matches FILTER in a process
# of its own, REPEAT times over (--gtest_repeat), and prints the output of
# every case that fails. One process per case keeps a sanitizer's report
# to the case that caused it (ThreadSanitizer's deadlock detector, for
# one, otherwise links mutexes of finished tests to later ones).
#
# usage (from the build directory): run_cases.sh BINARY FILTER REPEAT
# Exits non-zero when a case fails or when FILTER matches no case.
set -u
bin="$1"
filter="$2"
repeat="$3"
status=0
cases=0
suite=""
while IFS= read -r line; do
  line="${line%%  #*}"
  if [ "${line# }" = "$line" ]; then
    suite="$line"
    continue
  fi
  name="${suite}${line#  }"
  cases=$((cases + 1))
  if ! "./$bin" --gtest_filter="$name" --gtest_repeat="$repeat" \
      > case.log 2>&1; then
    cat case.log
    echo "::error::$bin $name failed (--gtest_repeat=$repeat)"
    status=1
  fi
done < <("./$bin" --gtest_list_tests --gtest_filter="$filter")
echo "$bin: $cases case(s) x $repeat"
if [ "$cases" -eq 0 ]; then
  echo "::error::$bin: no case matches '$filter'"
  exit 1
fi
exit "$status"
