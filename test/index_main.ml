let () =
  Alcotest.run "untx-index"
    [
      ("index", Suite_index.suite);
      ("index-props", Props_index.suite);
    ]
