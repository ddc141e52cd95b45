(* Shared entry point of the test runners.

   Alcotest pads the printed test-name column to the longest suite name
   it is given and cuts each test name to fit 80 columns, so the name a
   test prints depends on which other suites share its runner. [run]
   registers, ahead of the real suites, one suite with no tests whose
   name is as long as the longest suite name in this directory
   ("bitstream"). It prints nothing, and every test prints the same name
   whichever runner holds it. *)

let widest_suite_name = String.length "bitstream"

let run name suites =
  Alcotest.run name ((String.make widest_suite_name ' ', []) :: suites)
