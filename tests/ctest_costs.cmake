# Included by ctest after the gtest discovery script (tests/CMakeLists.txt).
#
# Without cost data from an earlier run in the same build directory,
# ctest -j starts tests in declaration order. The rows of
# Policies/MixTasks.AnyWidthMatchesTheSerialLoop that forecast to the
# 0.6 floor are declared last but run longest under ThreadSanitizer,
# so a fresh build would start them last and wait on them. A COST makes
# ctest start them first; the costs are their seconds in a Debug TSan
# build on a 4-core host. A name that matches no test is ignored without
# an error: check with `ctest --show-only=json-v1`.
foreach(row_cost CP_SD_to60=160 BH_CP_to60=135 BH_to60=90 TAP_to60=75
                 LHybrid_to60=70)
    string(REPLACE "=" ";" row_cost "${row_cost}")
    list(GET row_cost 0 row)
    list(GET row_cost 1 cost)
    set_tests_properties(
        "Policies/MixTasks.AnyWidthMatchesTheSerialLoop/${row}  # GetParam() = ${row}"
        PROPERTIES COST ${cost})
endforeach()
